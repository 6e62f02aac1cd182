// Runs a workload's phases and turns them into the benchmark's metrics.
//
// One phase is one complete workflow: construct it, run it until the
// generator closes its stream, check every sink step against the
// reference.  A saturated phase publishes each step as soon as the
// transport accepts the previous one (closed loop); a paced phase publishes
// step k at t0 + (k - 1) / rate (open loop; a blocked publish makes later
// steps late, none is skipped).  Step 0 of every phase is the set-up step:
// the generator waits for the sink to finish it before the timed steps
// start, so set-up and steady state never overlap.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Spans recorded from the benchmark's own code (around the generator's
/// calls into adios::Writer, the reference check, and each replayed layer
/// call), kept in memory and written as a Chrome trace when the run ends.
/// A disabled tracer records nothing.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on) {}
    bool on() const noexcept { return on_; }
    void span(const std::string& name, const std::string& cat, double t0, double t1,
              std::int64_t step = -1);
    void write(const std::string& path) const;

private:
    struct Span {
        std::string name;
        std::string cat;
        double t0 = 0.0;
        double t1 = 0.0;
        std::int64_t step = -1;
    };
    const bool on_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// What the generator saw of one step (core::steady_now_seconds time base).
struct StepTiming {
    double due = 0.0;    // paced: scheduled publish instant; saturated: = begin
    double begin = 0.0;  // before Writer::begin_step
    double put = 0.0;    // after put_span and the fill copy
    double end = 0.0;    // after Writer::end_step
};

struct PhaseResult {
    std::string error;  // non-empty when the workflow threw
    double setup_s = 0.0;
    std::uint64_t attempted = 0;  // steps published
    std::uint64_t delivered = 0;  // sink steps equal to the reference, in order
    std::uint64_t failed = 0;     // missing, duplicated, out of order, wrong, or extra
    std::vector<StepTiming> gen;
    double throughput_mb_s = 0.0;    // saturated phases
    std::vector<double> latency_ms;  // paced phases, steps >= 1
    double peak_rss_mb = 0.0;        // the phase process's maximum resident set

    // Filled when per-layer data is requested.
    std::vector<std::vector<double>> stage_compute_ms;  // per stage, steps >= 1
    double cp_top_share = 0.0;
    double residual_pct = 0.0;
    std::size_t fused_units = 0;
    double queue_s_per_step = 0.0;     // program's Queue spans, summed over streams
    double assemble_s_per_step = 0.0;  // program's Assemble spans
};

/// A workload with its seeded inputs and their reference results.
struct Inputs {
    const Workload* w = nullptr;
    std::vector<std::vector<double>> variants;
    std::vector<core::HistogramResult> refs;  // one per variant
};

Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Runs one phase of `duration_s` timed seconds.  Outputs (sink file,
/// durable log) go under `workdir`.
PhaseResult run_phase(const Inputs& in, bool paced, double duration_s,
                      const std::string& workdir, Tracer& tracer, bool layers);

/// Fused units the default fusion planner forms for the workload's graph
/// (nothing is run).
std::size_t planned_fused_units(const Workload& w);

/// One reported number.
struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  // exceptions, one line each
    std::vector<std::string> notes;   // flags a reader should see
};

/// The end-to-end metrics: `episodes` saturated + paced phase pairs
/// sharing `seconds` of timed work, tracing off.  Each phase runs in a
/// process of its own, forked from this one once the inputs exist, so every
/// phase starts as cold as a fresh launch and has its own resident set.
Outcome measure_end_to_end(const Inputs& in, double seconds, int episodes,
                           const std::string& workdir);

/// The per-layer metrics: the same phases with the benchmark's spans on,
/// interleaved with untraced saturated phases for the tracing overhead,
/// then timed replays of each layer's public functions on the workload's
/// step shapes.  Writes the span trace to `trace_path`.
Outcome measure_layers(const Inputs& in, double seconds, int episodes,
                       const std::string& workdir, const std::string& trace_path);

}  // namespace perfbench
