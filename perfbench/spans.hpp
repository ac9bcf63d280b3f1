#pragma once

// Bench-side span recorder. Spans wrap the benchmark's own calls into each
// layer's public functions; nothing inside the simulator is instrumented.
// Spans live in memory and are written out once, after the run.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::string run_id;  ///< which workload run the span belongs to
    double start_s{0.0};  ///< seconds since the recorder was created
    double end_s{0.0};
    int parent{-1};       ///< index of the enclosing span, -1 at the root
};

class SpanRecorder {
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void set_run_id(std::string id) { run_id_ = std::move(id); }

    /// RAII span: opens on construction, closes on destruction. A disabled
    /// recorder makes it a no-op, so untraced runs pay one branch.
    class Scope {
      public:
        Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
            if (rec_.enabled_) index_ = rec_.open(name);
        }
        ~Scope() {
            if (index_ >= 0) rec_.close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanRecorder& rec_;
        int index_{-1};
    };

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed over every span with that name.
    std::map<std::string, double> self_seconds() const {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& s : spans_)
            if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
        return out;
    }

  private:
    double now() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
    }
    int open(const char* name) {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, run_id_, now(), 0.0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }
    void close(int index) {
        spans_[static_cast<std::size_t>(index)].end_s = now();
        stack_.pop_back();
    }

    bool enabled_;
    std::string run_id_;
    std::chrono::steady_clock::time_point origin_{std::chrono::steady_clock::now()};
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

}  // namespace perfbench
