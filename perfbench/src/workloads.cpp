#include "workloads.hpp"

#include <cmath>
#include <limits>

namespace perfbench {

namespace {

// Step sizes.  mxn_transport's generated step is 29.4 MB so that the steps in
// flight on its first hop (queue + read-ahead window + the one being filled)
// exceed the host's last-level cache; fused_analysis' 2.4 MB step fits in
// cache; durable_log's steps are smaller again so the log's append and
// reload, not the bulk copy, dominate.
constexpr std::uint64_t kMxnSlices = 8;
constexpr std::uint64_t kMxnPoints = 65536;
constexpr std::uint64_t kFusedRows = 98304;  // divisible by 16: 2 ranks x stride 8
constexpr std::uint64_t kDurableRows = 32768;

const std::vector<std::string> kQuantities = {
    "density",  "temperature", "parallel_pressure", "perpendicular_pressure",
    "energy_flux", "potential", "current"};

std::vector<Workload> build_workloads() {
    std::vector<Workload> out;
    {
        Workload w;
        w.name = "mxn_transport";
        w.why = "Fig. 6 chain at unequal rank counts: every hop is a real MxN stream, "
                "in-flight steps exceed the LLC, one small kernel";
        w.array = "field3d";
        w.shape = util::NdShape{kMxnSlices, kMxnPoints, 7};
        w.dim_names = {"ntoroidal", "ngridpoints", "nquantities"};
        w.header = kQuantities;
        w.analysis = Analysis::SelectHistogram;
        w.selected = 3;
        w.stages = {
            {"select", "select", 2,
             {kGenStream, w.array, "2", "psel.fp", "pp", w.header[w.selected]}},
            {"dim-reduce.1", "dim-reduce", 3, {"psel.fp", "pp", "2", "1", "pflat1.fp", "pp1"}},
            {"dim-reduce.2", "dim-reduce", 2, {"pflat1.fp", "pp1", "0", "1", "pflat2.fp", "pp2"}},
            {"histogram", "histogram", 1, {"pflat2.fp", "pp2", std::to_string(w.bins)}},
        };
        w.paced_rate = 65.0;
        w.fused_units = 0;
        out.push_back(std::move(w));
    }
    {
        Workload w;
        w.name = "fused_analysis";
        w.why = "Fig. 5/7 analytics at equal rank counts: fused into one unit, so "
                "kernels, pooled slabs and collectives dominate";
        w.array = "coords";
        w.shape = util::NdShape{kFusedRows, 3};
        w.dim_names = {"natoms", "ncomp"};
        w.analysis = Analysis::MagnitudeDownsampleThresholdHistogram;
        w.stride = 8;
        w.threshold = 0.8;
        w.stages = {
            {"magnitude", "magnitude", 2, {kGenStream, w.array, "m.fp", "mag"}},
            {"downsample", "downsample", 2,
             {"m.fp", "mag", "0", std::to_string(w.stride), "d.fp", "dmag"}},
            {"threshold", "threshold", 2,
             {"d.fp", "dmag", "above", std::to_string(w.threshold), "t.fp", "tmag"}},
            {"histogram", "histogram", 2, {"t.fp", "tmag", std::to_string(w.bins)}},
        };
        w.paced_rate = 230.0;
        w.fused_units = 1;
        out.push_back(std::move(w));
    }
    {
        Workload w;
        w.name = "durable_log";
        w.why = "every step is framed, CRC32C-checksummed, appended to a durable log "
                "and reloaded: the only workload where ffs and durable work";
        w.array = "coords";
        w.shape = util::NdShape{kDurableRows, 3};
        w.dim_names = {"natoms", "ncomp"};
        w.analysis = Analysis::MagnitudeHistogram;
        w.stages = {
            {"magnitude", "magnitude", 1, {kGenStream, w.array, "m.fp", "mag"}},
            {"histogram", "histogram", 1, {"m.fp", "mag", std::to_string(w.bins)}},
        };
        w.durable = true;
        w.paced_rate = 360.0;
        w.fused_units = 1;
        out.push_back(std::move(w));
    }
    return out;
}

std::uint64_t splitmix64(std::uint64_t z) {
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// Uniform in [0, 1) from the top 53 bits.
double unit(std::uint64_t z) {
    return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

double norm3(const double* v) {
    // Accumulated in index order, as core/kernels.hpp documents magnitude.
    double s = 0.0;
    s += v[0] * v[0];
    s += v[1] * v[1];
    s += v[2] * v[2];
    return std::sqrt(s);
}

core::HistogramResult histogram_of(const std::vector<double>& values, std::size_t bins) {
    core::HistogramResult h;
    h.counts.assign(bins, 0);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const double v : values) {
        if (std::isnan(v)) continue;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    if (!(lo <= hi)) return h;  // no finite value: min = max = 0, all bins empty
    h.min = lo;
    h.max = hi;
    // Edge rules: NaN dropped; bin = floor((v - min) / width), clamped into
    // [0, bins - 1]; a degenerate range puts everything in bin 0.
    const double width = (hi - lo) / static_cast<double>(bins);
    for (const double v : values) {
        if (std::isnan(v)) continue;
        std::size_t b = 0;
        if (width > 0.0) {
            const double x = (v - lo) / width;
            if (x >= static_cast<double>(bins)) {
                b = bins - 1;
            } else if (x > 0.0) {
                b = std::min(static_cast<std::size_t>(x), bins - 1);
            }
        }
        ++h.counts[b];
    }
    return h;
}

util::Box box1(std::uint64_t off, std::uint64_t cnt) { return util::Box({off}, {cnt}); }

}  // namespace

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = build_workloads();
    return all;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

std::vector<core::LaunchEntry> launch_entries(const Workload& w,
                                              const std::string& sink_file) {
    std::vector<core::LaunchEntry> out;
    core::LaunchEntry gen;
    gen.nprocs = 1;
    gen.component = kGenerator;
    gen.args = {kGenStream, w.array};
    out.push_back(std::move(gen));
    for (const Stage& st : w.stages) {
        core::LaunchEntry e;
        e.nprocs = st.nprocs;
        e.component = st.component;
        e.args = st.args;
        if (&st == &w.sink()) e.args.push_back(sink_file);
        out.push_back(std::move(e));
    }
    return out;
}

std::vector<std::vector<double>> make_variants(const Workload& w, std::uint64_t seed,
                                               std::size_t count) {
    std::vector<std::vector<double>> out(count);
    const std::uint64_t n = w.shape.volume();
    const std::uint64_t inner = w.shape[w.shape.ndim() - 1];
    for (std::size_t v = 0; v < count; ++v) {
        std::vector<double>& data = out[v];
        data.resize(n);
        const std::uint64_t base = splitmix64(seed * 0x100000001B3ull + v);
        for (std::uint64_t i = 0; i < n; ++i) {
            const double u = unit(splitmix64(base + i));
            if (w.analysis == Analysis::SelectHistogram) {
                // Quantity q of a field point lies in [q + 1, 2(q + 1)).
                data[i] = static_cast<double>(i % inner + 1) * (1.0 + u);
            } else {
                data[i] = 2.0 * u - 1.0;  // vector components in [-1, 1)
            }
        }
    }
    return out;
}

core::HistogramResult reference_histogram(const Workload& w,
                                          std::span<const double> input) {
    std::vector<double> values;
    switch (w.analysis) {
        case Analysis::SelectHistogram: {
            const std::uint64_t q = w.shape[2];
            values.reserve(input.size() / q);
            for (std::size_t i = w.selected; i < input.size(); i += q) {
                values.push_back(input[i]);
            }
            break;
        }
        case Analysis::MagnitudeHistogram: {
            values.reserve(input.size() / 3);
            for (std::size_t i = 0; i + 3 <= input.size(); i += 3) {
                values.push_back(norm3(&input[i]));
            }
            break;
        }
        case Analysis::MagnitudeDownsampleThresholdHistogram: {
            const std::size_t rows = input.size() / 3;
            for (std::size_t r = 0; r < rows; r += w.stride) {
                const double m = norm3(&input[r * 3]);
                if (m > w.threshold) values.push_back(m);
            }
            break;
        }
    }
    return histogram_of(values, w.bins);
}

bool same_histogram(const core::HistogramResult& a, const core::HistogramResult& b) {
    return a.min == b.min && a.max == b.max && a.counts == b.counts;
}

std::vector<Hop> hops(const Workload& w) {
    std::vector<Hop> out;
    const auto nprocs = [&](std::size_t i) { return w.stages.at(i).nprocs; };
    const util::Box whole = util::Box::whole(w.shape);
    if (w.analysis == Analysis::SelectHistogram) {
        const std::uint64_t s = w.shape[0];
        const std::uint64_t p = w.shape[1];
        // gen -> select: each select rank reads the selected quantity of its
        // slab of points (select partitions its largest unselected dim).
        Hop h0{kGenStream, w.shape, {whole}, {}};
        for (int r = 0; r < nprocs(0); ++r) {
            util::Box b = util::partition_along(w.shape, 1, r, nprocs(0));
            b.offset[2] = w.selected;
            b.count[2] = 1;
            h0.reader_boxes.push_back(b);
        }
        // select -> dim-reduce 2 1: both partition the points dimension.
        const util::NdShape sel{s, p, 1};
        Hop h1{"psel.fp", sel, {}, {}};
        for (int r = 0; r < nprocs(0); ++r) {
            h1.writer_blocks.push_back(util::partition_along(sel, 1, r, nprocs(0)));
        }
        for (int r = 0; r < nprocs(1); ++r) {
            h1.reader_boxes.push_back(util::partition_along(sel, 1, r, nprocs(1)));
        }
        // dim-reduce 2 1 -> dim-reduce 0 1 on [slices, points].
        const util::NdShape flat1{s, p};
        Hop h2{"pflat1.fp", flat1, {}, {}};
        for (int r = 0; r < nprocs(1); ++r) {
            h2.writer_blocks.push_back(util::partition_along(flat1, 1, r, nprocs(1)));
        }
        for (int r = 0; r < nprocs(2); ++r) {
            h2.reader_boxes.push_back(util::partition_along(flat1, 1, r, nprocs(2)));
        }
        // dim-reduce 0 1 -> histogram on [points * slices].
        const util::NdShape flat2{p * s};
        Hop h3{"pflat2.fp", flat2, {}, {util::Box::whole(flat2)}};
        for (int r = 0; r < nprocs(2); ++r) {
            const auto [off, cnt] = util::partition_range(p, r, nprocs(2));
            h3.writer_blocks.push_back(box1(off * s, cnt * s));
        }
        out = {h0, h1, h2, h3};
    } else {
        // gen -> head: row slabs of the [n, 3] array.
        Hop h0{kGenStream, w.shape, {whole}, {}};
        for (int r = 0; r < nprocs(0); ++r) {
            h0.reader_boxes.push_back(util::partition_along(w.shape, 0, r, nprocs(0)));
        }
        out.push_back(h0);
        if (w.fused_units == 0 && w.stages.size() == 2) {
            // magnitude -> histogram on [n].
            const util::NdShape mag{w.shape[0]};
            Hop h1{"m.fp", mag, {}, {}};
            for (int r = 0; r < nprocs(0); ++r) {
                const auto [off, cnt] = util::partition_range(w.shape[0], r, nprocs(0));
                h1.writer_blocks.push_back(box1(off, cnt));
            }
            for (int r = 0; r < nprocs(1); ++r) {
                h1.reader_boxes.push_back(util::partition_along(mag, 0, r, nprocs(1)));
            }
            out.push_back(h1);
        }
    }
    return out;
}

}  // namespace perfbench
