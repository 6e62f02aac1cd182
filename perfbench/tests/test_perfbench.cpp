// Tests of the benchmark itself: the reference check must be able to fail,
// and each workload must exercise the mechanism it was chosen for.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/registry.hpp"
#include "runner.hpp"

namespace {

const perfbench::Workload& workload(const std::string& name) {
    const perfbench::Workload* w = perfbench::find_workload(name);
    if (w == nullptr) throw std::runtime_error("no workload " + name);
    return *w;
}

/// Relative to the working directory (the repository root under run_tests.py).
std::string workdir() {
    const std::string dir = ".bench_build/work/tests";
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(PerfbenchFusion, WorkloadsPlanTheUnitsTheyWereChosenFor) {
    sb::core::register_builtin_components();
    EXPECT_EQ(perfbench::planned_fused_units(workload("fused_analysis")), 1u);
    EXPECT_EQ(perfbench::planned_fused_units(workload("mxn_transport")), 0u);
    for (const perfbench::Workload& w : perfbench::workloads()) {
        EXPECT_EQ(perfbench::planned_fused_units(w), w.fused_units) << w.name;
    }
}

TEST(PerfbenchReference, ShortPhaseMatchesTheReference) {
    sb::core::register_builtin_components();
    for (const perfbench::Workload& w : perfbench::workloads()) {
        const perfbench::Inputs in = perfbench::make_inputs(w, 7);
        perfbench::Tracer off(false);
        const perfbench::PhaseResult r =
            perfbench::run_phase(in, false, 0.2, workdir(), off, false);
        EXPECT_TRUE(r.error.empty()) << w.name << ": " << r.error;
        EXPECT_GE(r.attempted, 2u) << w.name;
        EXPECT_EQ(r.failed, 0u) << w.name;
        EXPECT_EQ(r.delivered, r.attempted) << w.name;
    }
}

TEST(PerfbenchReference, CorruptedExpectedBinFailsTheCheck) {
    sb::core::register_builtin_components();
    perfbench::Inputs in = perfbench::make_inputs(workload("fused_analysis"), 7);
    // Shift one count between two bins of the first variant's reference:
    // totals still agree, only the bin contents differ.
    auto& counts = in.refs.at(0).counts;
    ASSERT_GT(counts.at(0), 0u);
    --counts[0];
    ++counts[1];
    perfbench::Tracer off(false);
    const perfbench::PhaseResult r = perfbench::run_phase(in, false, 0.2, workdir(), off, false);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_GE(r.attempted, 1u);
    // Steps fed variant 0 (k % 3 == 0) must fail; the others still pass.
    const std::uint64_t variant0 = (r.attempted + 2) / 3;
    EXPECT_EQ(r.failed, variant0);
    EXPECT_EQ(r.delivered, r.attempted - variant0);
}

TEST(PerfbenchInputs, SameSeedSameInputs) {
    const perfbench::Workload& w = workload("durable_log");
    EXPECT_EQ(perfbench::make_variants(w, 3, 2), perfbench::make_variants(w, 3, 2));
    EXPECT_NE(perfbench::make_variants(w, 3, 1), perfbench::make_variants(w, 4, 1));
}

}  // namespace
