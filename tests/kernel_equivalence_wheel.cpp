// Prints kernel_equivalence::result_json for the scheme named on the command
// line (a workload::scheme_name), run on the product's timer-wheel kernel.
// Usage: kernel_equivalence_wheel gpsr-greedy

#include <cstdio>
#include <string>

#include "kernel_equivalence_scenario.hpp"

int main(int argc, char** argv) {
    using geoanon::workload::Scheme;
    if (argc != 2) return 2;
    for (const Scheme s : {Scheme::kGpsrGreedy, Scheme::kAgfwAck, Scheme::kAgfwNoAck}) {
        if (geoanon::workload::scheme_name(s) != argv[1]) continue;
        const std::string json = geoanon::kernel_equivalence::result_json(s);
        std::fwrite(json.data(), 1, json.size(), stdout);
        return 0;
    }
    return 2;
}
