#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "kernel_equivalence_scenario.hpp"

namespace geoanon::reference {
extern std::uint64_t heap_kernel_schedules;  // reference/heap_kernel.cpp
}  // namespace geoanon::reference

namespace {

using namespace geoanon;

/// Full-scenario differential between the timer-wheel and binary-heap event
/// kernels: identical configs must produce byte-identical result JSON
/// (perf excluded — it is wall-clock). This binary links the heap kernel
/// (reference/heap_kernel.cpp) in place of the product's wheel; the wheel
/// side is the same scenario printed by kernel_equivalence_wheel, a build of
/// the same code against the unmodified product.
class KernelEquivalence : public ::testing::Test {
  protected:
    static std::string run_on_wheel(workload::Scheme scheme) {
        const std::string cmd =
            std::string(GEOANON_WHEEL_SCENARIO_BIN) + " " + workload::scheme_name(scheme);
        std::FILE* pipe = ::popen(cmd.c_str(), "r");
        if (pipe == nullptr) return "popen failed";
        std::string out;
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
        const int rc = ::pclose(pipe);
        if (rc != 0) return "kernel_equivalence_wheel exited with " + std::to_string(rc);
        return out;
    }

    static std::string run_on_heap(workload::Scheme scheme) {
        const std::uint64_t before = reference::heap_kernel_schedules;
        std::string json = kernel_equivalence::result_json(scheme);
        // The scenario really ran on the linked-in heap kernel.
        EXPECT_GT(reference::heap_kernel_schedules, before);
        return json;
    }
};

TEST_F(KernelEquivalence, GpsrResultJsonByteIdentical) {
    const std::string heap = run_on_heap(workload::Scheme::kGpsrGreedy);
    EXPECT_EQ(run_on_wheel(workload::Scheme::kGpsrGreedy), heap);
    EXPECT_FALSE(heap.empty());
}

TEST_F(KernelEquivalence, AgfwAckResultJsonByteIdentical) {
    const std::string heap = run_on_heap(workload::Scheme::kAgfwAck);
    EXPECT_EQ(run_on_wheel(workload::Scheme::kAgfwAck), heap);
    EXPECT_FALSE(heap.empty());
}

}  // namespace
