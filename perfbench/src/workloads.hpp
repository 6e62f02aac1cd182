// The benchmark's workloads: what each generator publishes, which shipped
// components consume it, and the independent reference every sink step is
// checked against.
//
// Each workload is one in situ workflow fed by a benchmark-owned load
// generator ("bench-gen", registered through core::register_component) that
// stands in for the simulation: it copies one of a few pre-generated, seeded
// step variants into the transport's step buffer and publishes it.  The
// analysis chain is made of the shipped components only, so the benchmark
// measures the program exactly as a launch script would run it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/histogram.hpp"
#include "core/launch_script.hpp"
#include "util/ndarray.hpp"

namespace perfbench {

namespace core = sb::core;
namespace util = sb::util;

/// Registry name of the benchmark's load generator.
inline constexpr const char* kGenerator = "bench-gen";
/// Stream the generator publishes.
inline constexpr const char* kGenStream = "gen.fp";

/// One analysis component instance of a workload.
struct Stage {
    std::string role;       // metric label: "select", "dim-reduce.1", ...
    std::string component;  // registry name
    int nprocs = 1;
    std::vector<std::string> args;  // the sink's output file is appended at launch
};

/// The sink-side computation the reference recomputes.
enum class Analysis {
    SelectHistogram,     // histogram of one quantity of a [slices, points, q] field
    MagnitudeHistogram,  // histogram of the row norms of an [n, 3] array
    MagnitudeDownsampleThresholdHistogram,
};

struct Workload {
    std::string name;
    std::string why;
    std::string array;                   // generated array name
    util::NdShape shape;                 // generated array shape (doubles)
    std::vector<std::string> dim_names;  // one per dimension
    std::vector<std::string> header;     // names along the last dimension, or empty
    std::vector<Stage> stages;           // head ... sink (always a histogram)
    Analysis analysis = Analysis::MagnitudeHistogram;
    std::size_t selected = 0;   // SelectHistogram: index of the selected quantity
    std::uint64_t stride = 1;   // downsample stride
    double threshold = 0.0;     // threshold "above" level
    std::size_t bins = 64;
    double paced_rate = 0.0;    // steps per second in the paced phase
    bool durable = false;       // every stream appends to a durable step log
    std::size_t fused_units = 0;  // chains the default fusion planner must form

    std::uint64_t step_bytes() const { return shape.volume() * sizeof(double); }
    const Stage& sink() const { return stages.back(); }
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

/// The launch entries of the workload (generator first), with `sink_file` as
/// the histogram's output file — the graph Workflow::run lints and runs.
std::vector<core::LaunchEntry> launch_entries(const Workload& w,
                                              const std::string& sink_file);

/// `count` seeded step variants of the generated array.  The same seed gives
/// the same variants; step k of a run publishes variant k % count.
std::vector<std::vector<double>> make_variants(const Workload& w, std::uint64_t seed,
                                               std::size_t count);

/// The histogram a correct workflow writes for one step of `input`,
/// recomputed by one plain single-threaded loop that follows the
/// components' documented semantics (histogram edge rules of
/// core/kernels.hpp), independently of the program's kernels.
core::HistogramResult reference_histogram(const Workload& w,
                                          std::span<const double> input);

/// Exact comparison: same min, max and bin counts (the step index is the
/// caller's concern).
bool same_histogram(const core::HistogramResult& a, const core::HistogramResult& b);

/// One stream hop as the readers see it: the writer blocks of a step and
/// each reader rank's box, for replaying the MxN copy plans.
struct Hop {
    std::string stream;
    util::NdShape shape;
    std::vector<util::Box> writer_blocks;
    std::vector<util::Box> reader_boxes;
};

/// Every materialized hop of the workload (fused interiors excluded), with
/// the boxes the shipped components request.
std::vector<Hop> hops(const Workload& w);

}  // namespace perfbench
