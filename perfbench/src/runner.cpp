#include "runner.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "adios/writer.hpp"
#include "core/registry.hpp"
#include "core/workflow.hpp"
#include "durable/log.hpp"
#include "ffs/crc32c.hpp"
#include "flexpath/stream.hpp"
#include "lint/lint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/pool.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace adios = sb::adios;
namespace durable = sb::durable;
namespace ffs = sb::ffs;
namespace flexpath = sb::flexpath;
namespace lint = sb::lint;
namespace obs = sb::obs;
namespace fs = std::filesystem;

namespace {

double now() { return core::steady_now_seconds(); }

double pct(std::vector<double> xs, double p) {
    return xs.empty() ? 0.0 : util::percentile(xs, p);
}

/// Keeps replayed results observable so the optimizer cannot drop the work.
std::atomic<std::uint64_t> g_keep{0};

void keep(std::uint64_t v) { g_keep.fetch_add(v, std::memory_order_relaxed); }

// ---- the load generator ---------------------------------------------------

/// What one phase asks of the generator, and what the generator records.
struct GenPlan {
    const Inputs* in = nullptr;
    bool paced = false;
    double duration_s = 0.0;
    Tracer* tracer = nullptr;
    std::shared_ptr<core::StepStats> sink;
    int sink_ranks = 1;
    std::vector<StepTiming> timings;  // written by the generator rank only
};

std::string group_xml(const Workload& w) {
    std::string xml = "<adios-config>\n  <adios-group name=\"bench_gen\">\n";
    std::string dims;
    for (const std::string& d : w.dim_names) {
        xml += "    <var name=\"" + d + "\" type=\"unsigned long\"/>\n";
        dims += (dims.empty() ? "" : ",") + d;
    }
    xml += "    <var name=\"" + w.array + "\" type=\"double\" dimensions=\"" + dims +
           "\"/>\n";
    if (!w.header.empty()) {
        std::string names;
        for (const std::string& h : w.header) names += (names.empty() ? "" : ",") + h;
        xml += "    <attribute name=\"" +
               core::header_attr_key(w.array, w.shape.ndim() - 1) + "\" value=\"" +
               names + "\"/>\n";
    }
    xml += "  </adios-group>\n  <transport group=\"bench_gen\" method=\"FLEXPATH\"/>\n"
           "</adios-config>\n";
    return xml;
}

/// The simulation stand-in: one writer rank that copies a pre-generated
/// variant into the transport's step buffer (put_span) and publishes it.
class Generator final : public core::Component {
public:
    explicit Generator(GenPlan* plan) : plan_(plan) {}

    std::string name() const override { return kGenerator; }
    std::string usage() const override {
        return "bench-gen <output-stream-name> <array-name>";
    }
    core::Ports ports(const util::ArgList& args) const override {
        args.require_at_least(2, usage());
        return core::Ports{{}, {args.str(0, "output-stream-name")}, true};
    }

    void run(core::RunContext& ctx, const util::ArgList& args) override {
        args.require_at_least(2, usage());
        if (plan_ == nullptr) throw std::logic_error("bench-gen: no generator plan");
        GenPlan& p = *plan_;
        const Workload& w = *p.in->w;
        adios::Writer writer(ctx.fabric, args.str(0, "output-stream-name"),
                             adios::GroupDef::from_xml(group_xml(w)), ctx.comm.rank(),
                             ctx.comm.size(), ctx.stream_options);
        const util::Box box = util::Box::whole(w.shape);
        const double period = p.paced ? 1.0 / w.paced_rate : 0.0;
        double t0 = 0.0;
        for (std::uint64_t k = 0;; ++k) {
            StepTiming t;
            if (k == 1) {
                wait_for_sink_step0(p);
                t0 = now();
            }
            if (k >= 1) {
                if (p.paced) {
                    t.due = t0 + static_cast<double>(k - 1) * period;
                    if (t.due - t0 > p.duration_s) break;
                    const double wait = t.due - now();
                    if (wait > 0.0) {
                        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
                    }
                } else if (now() - t0 >= p.duration_s) {
                    break;
                }
            }
            t.begin = now();
            if (!p.paced) t.due = t.begin;
            writer.begin_step();
            for (std::size_t d = 0; d < w.shape.ndim(); ++d) {
                writer.set_dimension(w.dim_names[d], w.shape[d]);
            }
            const std::span<double> out = writer.put_span<double>(w.array, box);
            const std::vector<double>& src = p.in->variants[k % p.in->variants.size()];
            std::memcpy(out.data(), src.data(), src.size() * sizeof(double));
            t.put = now();
            writer.end_step();
            t.end = now();
            core::record_step(ctx, k, t.end - t.begin, 0, w.step_bytes());
            if (p.tracer->on()) {
                const auto step = static_cast<std::int64_t>(k);
                p.tracer->span("gen.put", "gen", t.begin, t.put, step);
                p.tracer->span("gen.end_step", "gen", t.put, t.end, step);
            }
            p.timings.push_back(t);
        }
        writer.close();
    }

private:
    /// Holds the timed steps back until every sink rank finished step 0, so
    /// set-up (lazy writers, cold pools, log open) never overlaps them.
    static void wait_for_sink_step0(const GenPlan& p) {
        const double limit = now() + 30.0;
        for (;;) {
            int done = 0;
            for (const core::StepStats::Sample& s : p.sink->samples()) {
                done += s.step == 0 ? 1 : 0;
            }
            if (done >= p.sink_ranks) return;
            if (now() > limit) {
                throw std::runtime_error("bench-gen: the sink did not finish step 0 in 30 s");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }

    GenPlan* plan_;
};

void register_generator(GenPlan* plan) {
    core::register_component(kGenerator,
                             [plan] { return std::make_unique<Generator>(plan); });
}

// ---- phase accounting -------------------------------------------------------

void account(Outcome& o, const PhaseResult& r, const std::string& what) {
    o.attempted += r.attempted;
    o.failed += r.failed;
    if (!r.error.empty()) o.errors.push_back(what + ": " + r.error);
}

/// Median wall time of `reps` calls of `fn`, in ms; each call is one span.
template <typename Fn>
double replay_ms(Tracer& tracer, const std::string& name, int reps, Fn&& fn) {
    std::vector<double> ms;
    ms.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = now();
        fn();
        const double t1 = now();
        tracer.span(name, "replay", t0, t1, i);
        ms.push_back((t1 - t0) * 1e3);
    }
    return pct(std::move(ms), 50.0);
}

// ---- layer replays ----------------------------------------------------------

/// The workload's reader boxes replayed through compile_copy_plan (once,
/// as the reader's plan cache does) and execute_copy_plan (timed); a reader
/// box equal to one writer block is a zero-copy view and copies nothing.
double replay_copy_ms(const Workload& w, Tracer& tracer) {
    struct Planned {
        std::size_t src = 0;
        std::size_t dst = 0;
        util::CopyPlan plan;
    };
    std::vector<std::vector<std::byte>> srcs;
    std::vector<std::vector<std::byte>> dsts;
    std::vector<Planned> plans;
    constexpr std::size_t kElem = sizeof(double);
    for (const Hop& hop : hops(w)) {
        const std::size_t src0 = srcs.size();
        for (const util::Box& b : hop.writer_blocks) {
            srcs.emplace_back(b.volume() * kElem, std::byte{1});
        }
        for (const util::Box& r : hop.reader_boxes) {
            const std::size_t dst = dsts.size();
            dsts.emplace_back(r.volume() * kElem);
            for (std::size_t i = 0; i < hop.writer_blocks.size(); ++i) {
                const util::Box& b = hop.writer_blocks[i];
                if (b == r) continue;
                const auto region = util::intersect(b, r);
                if (!region || region->empty()) continue;
                plans.push_back({src0 + i, dst, util::compile_copy_plan(b, r, *region, kElem)});
            }
        }
    }
    return replay_ms(tracer, "replay.copy_plan", 20, [&] {
        for (const Planned& p : plans) {
            util::execute_copy_plan(srcs[p.src], dsts[p.dst], p.plan);
        }
        keep(static_cast<std::uint64_t>(dsts.front().front()));
    });
}

/// The first hop's step as the transport carries it: the metadata packet's
/// contents and the block map (one block, the generator's whole array).
struct WireStep {
    flexpath::StepMeta meta;
    std::map<std::string, std::vector<flexpath::Block>> blocks;

    std::span<const std::byte> payload() const { return *blocks.begin()->second.front().data; }
};

WireStep wire_step(const Inputs& in) {
    const Workload& w = *in.w;
    WireStep s;
    s.meta.step = 1;
    s.meta.vars[w.array] = flexpath::VarDecl{w.array, ffs::Kind::Float64, w.shape,
                                             w.dim_names};
    if (!w.header.empty()) {
        s.meta.string_attrs[core::header_attr_key(w.array, w.shape.ndim() - 1)] =
            w.header;
    }
    const auto bytes = std::as_bytes(std::span<const double>(in.variants.front()));
    s.blocks[w.array].push_back(flexpath::Block{
        util::Box::whole(w.shape),
        std::make_shared<const std::vector<std::byte>>(bytes.begin(), bytes.end())});
    return s;
}

/// Appends the workload's step to a scratch log, then times load_step.
double replay_durable_load_ms(const Inputs& in, const fs::path& dir, Tracer& tracer) {
    constexpr int kSteps = 32;
    fs::remove_all(dir);
    double ms = 0.0;
    {
        durable::Options opts;
        opts.dir = dir.string();
        opts.fsync = durable::FsyncPolicy::Never;
        durable::Log log("replay.fp", opts);
        const WireStep ws = wire_step(in);
        const ffs::Bytes meta = flexpath::encode_step_meta(ws.meta);
        const ffs::Bytes packet = flexpath::encode_step_blocks(ws.blocks);
        ffs::EncodedSegments segs;
        segs.segments = {packet};
        segs.total = packet.size();
        for (int s = 0; s < kSteps; ++s) {
            log.append_step(static_cast<std::uint64_t>(s), 0, meta, segs);
        }
        std::uint64_t next = 0;
        ms = replay_ms(tracer, "replay.durable_load", kSteps, [&] {
            keep(log.load_step(next++).payload.size());
        });
    }
    fs::remove_all(dir);
    return ms;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- phases in child processes ----------------------------------------------

/// Flat byte encoding of the PhaseResult fields the end-to-end metrics use.
class Wire {
public:
    Wire() = default;
    explicit Wire(std::string bytes) : buf_(std::move(bytes)) {}

    template <typename T>
    void put(const T& v) {
        buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
    template <typename T>
    void put_vec(const std::vector<T>& v) {
        put<std::uint64_t>(v.size());
        buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
    }
    template <typename T>
    T get() {
        T v{};
        take(&v, sizeof v);
        return v;
    }
    template <typename T>
    std::vector<T> get_vec() {
        const auto n = get<std::uint64_t>();
        if (n > (buf_.size() - pos_) / sizeof(T)) {
            throw std::runtime_error("phase process: short result");
        }
        std::vector<T> v(n);
        take(v.data(), n * sizeof(T));
        return v;
    }
    const std::string& bytes() const { return buf_; }

private:
    void take(void* dst, std::size_t n) {
        if (n > buf_.size() - pos_) throw std::runtime_error("phase process: short result");
        std::memcpy(dst, buf_.data() + pos_, n);
        pos_ += n;
    }
    std::string buf_;
    std::size_t pos_ = 0;
};

std::string encode_result(const PhaseResult& r) {
    Wire w;
    w.put(r.setup_s);
    w.put(r.attempted);
    w.put(r.delivered);
    w.put(r.failed);
    w.put(r.throughput_mb_s);
    w.put_vec(r.latency_ms);
    w.put_vec(r.gen);
    w.put_vec(std::vector<char>(r.error.begin(), r.error.end()));
    return w.bytes();
}

PhaseResult decode_result(std::string bytes) {
    Wire w(std::move(bytes));
    PhaseResult r;
    r.setup_s = w.get<double>();
    r.attempted = w.get<std::uint64_t>();
    r.delivered = w.get<std::uint64_t>();
    r.failed = w.get<std::uint64_t>();
    r.throughput_mb_s = w.get<double>();
    r.latency_ms = w.get_vec<double>();
    r.gen = w.get_vec<StepTiming>();
    const std::vector<char> err = w.get_vec<char>();
    r.error.assign(err.begin(), err.end());
    return r;
}

/// run_phase in a forked child, which reports back through a pipe.  The
/// caller holds no other thread at this point (every workflow it ran has
/// joined), so the child starts from a consistent copy.  Waits for the child.
PhaseResult run_phase_in_child(const Inputs& in, bool paced, double duration_s,
                               const std::string& workdir) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        std::string out;
        try {
            Tracer off(false);
            out = encode_result(run_phase(in, paced, duration_s, workdir, off, false));
        } catch (const std::exception& e) {
            PhaseResult r;
            r.error = e.what();
            out = encode_result(r);
        }
        int code = 0;
        for (std::size_t done = 0; done < out.size();) {
            const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) {
                code = 1;
                break;
            }
            done += static_cast<std::size_t>(n);
        }
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0) {
            bytes.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    PhaseResult r;
    r.failed = 1;
    r.error = "phase process ended abnormally (wait status " + std::to_string(status) + ")";
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        try {
            r = decode_result(std::move(bytes));
        } catch (const std::exception& e) {
            r.error = e.what();
        }
    }
    r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
    return r;
}

}  // namespace

// ---- Tracer -------------------------------------------------------------------

void Tracer::span(const std::string& name, const std::string& cat, double t0, double t1,
                  std::int64_t step) {
    if (!on_) return;
    const std::lock_guard lock(mu_);
    spans_.push_back(Span{name, cat, t0, t1, step});
}

void Tracer::write(const std::string& path) const {
    const std::lock_guard lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
    double epoch = spans_.empty() ? 0.0 : spans_.front().t0;
    for (const Span& s : spans_) epoch = std::min(epoch, s.t0);
    // One track per span category: the generator, the check, the replays.
    const std::vector<std::string> tracks = {"gen", "check", "replay"};
    out << "[\n"
        << R"({"ph":"M","name":"process_name","pid":0,"args":{"name":"perfbench"}})";
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        out << ",\n"
            << R"({"ph":"M","name":"thread_name","pid":0,"tid":)" << i
            << R"(,"args":{"name":")" << tracks[i] << "\"}}";
    }
    for (const Span& s : spans_) {
        const auto it = std::find(tracks.begin(), tracks.end(), s.cat);
        out << ",\n"
            << R"({"ph":"X","name":")" << obs::json_escape(s.name) << R"(","cat":")"
            << obs::json_escape(s.cat) << R"(","pid":0,"tid":)" << (it - tracks.begin())
            << R"(,"ts":)" << obs::json_number((s.t0 - epoch) * 1e6) << R"(,"dur":)"
            << obs::json_number((s.t1 - s.t0) * 1e6);
        if (s.step >= 0) out << R"(,"args":{"step":)" << s.step << "}";
        out << "}";
    }
    out << "\n]\n";
}

// ---- phases -------------------------------------------------------------------

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
    constexpr std::size_t kVariants = 3;
    Inputs in;
    in.w = &w;
    in.variants = make_variants(w, seed, kVariants);
    for (const auto& v : in.variants) in.refs.push_back(reference_histogram(w, v));
    return in;
}

PhaseResult run_phase(const Inputs& in, bool paced, double duration_s,
                      const std::string& workdir, Tracer& tracer, bool layers) {
    const Workload& w = *in.w;
    const fs::path dir = fs::path(workdir) / w.name;
    const std::string sink_file = (dir / "histogram.txt").string();
    const fs::path log_dir = dir / "log";
    fs::create_directories(dir);
    fs::remove(sink_file);
    fs::remove_all(log_dir);  // a leftover log would turn the run into a cold restart
    // Fresh program state per phase: span windows restart at step 0, and
    // the pool's shelves start cold, a cost set-up pays on every launch.
    obs::SpanStore::global().clear();
    util::BufferPool::global().bump_generation();

    PhaseResult r;
    GenPlan plan;
    plan.in = &in;
    plan.paced = paced;
    plan.duration_s = duration_s;
    plan.tracer = &tracer;
    plan.sink_ranks = w.sink().nprocs;
    register_generator(&plan);

    std::vector<std::shared_ptr<core::StepStats>> stats;
    obs::CriticalPathSummary cp;
    const double t_construct = now();
    {
        flexpath::StreamOptions opts;
        if (w.durable) {
            opts.durable.dir = log_dir.string();
            opts.durable.fsync = durable::FsyncPolicy::Never;
            opts.durable.retain_steps = 8;
            opts.durable.segment_bytes = 4u << 20;
        }
        flexpath::Fabric fabric;
        core::Workflow wf(fabric, opts);
        for (const core::LaunchEntry& e : launch_entries(w, sink_file)) {
            stats.push_back(wf.add(e.component, e.nprocs, e.args));
        }
        plan.sink = stats.back();
        try {
            wf.run();
        } catch (const std::exception& e) {
            r.error = e.what();
        }
        if (layers && r.error.empty()) {
            cp = wf.critical_path();
            r.fused_units = wf.fusion_plan().chains.size();
        }
    }
    register_generator(nullptr);

    // Per step, the instant the last sink rank finished it.
    std::map<std::uint64_t, double> sink_done;
    for (const core::StepStats::Sample& s : plan.sink->samples()) {
        double& t = sink_done[s.step];
        t = std::max(t, s.t_end);
    }

    // Reference check: the sink's steps must be 0, 1, 2, ... each exactly
    // once, each equal to the reference of the variant it was fed.
    const double tc = now();
    std::vector<core::HistogramResult> got;
    try {
        got = core::read_histogram_file(sink_file);
    } catch (const std::exception& e) {
        if (r.error.empty()) r.error = std::string("sink output: ") + e.what();
    }
    r.attempted = plan.timings.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
        const bool ok = i < r.attempted && got[i].step == i &&
                        same_histogram(got[i], in.refs[i % in.refs.size()]);
        r.delivered += ok ? 1 : 0;
    }
    r.failed = r.attempted - std::min<std::uint64_t>(r.delivered, r.attempted) +
               (got.size() > r.attempted ? got.size() - r.attempted : 0);
    tracer.span("check.reference", "check", tc, now());

    r.gen = std::move(plan.timings);
    const std::size_t n = r.gen.size();
    if (const auto it = sink_done.find(0); it != sink_done.end()) {
        r.setup_s = it->second - t_construct;
    }
    if (!paced && n >= 2 && sink_done.count(n - 1)) {
        const double span = sink_done[n - 1] - r.gen[1].begin;
        r.throughput_mb_s =
            static_cast<double>((n - 1) * w.step_bytes()) / 1e6 / span;
    }
    if (paced) {
        for (std::size_t k = 1; k < n; ++k) {
            if (const auto it = sink_done.find(k); it != sink_done.end()) {
                r.latency_ms.push_back((it->second - r.gen[k].due) * 1e3);
            }
        }
    }
    if (!layers) return r;

    r.stage_compute_ms.resize(w.stages.size());
    for (std::size_t i = 0; i < w.stages.size(); ++i) {
        for (const core::StepStats::StepRow& row : stats[i + 1]->per_step()) {
            if (row.step >= 1) r.stage_compute_ms[i].push_back(row.max_seconds * 1e3);
        }
    }
    if (cp.steps > 0 && !cp.by_instance.empty()) {
        r.cp_top_share = static_cast<double>(cp.by_instance.front().steps_limiting) /
                         static_cast<double>(cp.steps);
    }
    // Ledger: over the steps the critical path covers, the wall clock
    // between the sink finishing the step before the first and finishing
    // the last, against the sum of each step's limiting segment.
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    double limited = 0.0;
    for (const obs::CriticalPathEntry& e : cp.per_step) {
        if (e.step < 1 || !sink_done.count(e.step)) continue;
        if (first == 0 || e.step < first) first = e.step;
        last = std::max(last, e.step);
        limited += e.seconds;
    }
    if (first >= 1 && last > first && sink_done.count(first - 1)) {
        const double wall = sink_done[last] - sink_done[first - 1];
        r.residual_pct = 100.0 * (wall - limited) / wall;
    }
    for (const Hop& hop : hops(w)) {
        double queue = 0.0;
        double assemble = 0.0;
        std::size_t steps = 0;
        for (const obs::StepTimeline& tl :
             obs::SpanStore::global().timelines(hop.stream, t_construct)) {
            if (tl.step < 1) continue;
            ++steps;
            for (const obs::StepSegment& seg : tl.segments) {
                if (seg.kind == obs::SegmentKind::Queue) queue += seg.seconds();
                if (seg.kind == obs::SegmentKind::Assemble) assemble += seg.seconds();
            }
        }
        if (steps > 0) {
            r.queue_s_per_step += queue / static_cast<double>(steps);
            r.assemble_s_per_step += assemble / static_cast<double>(steps);
        }
    }
    return r;
}

std::size_t planned_fused_units(const Workload& w) {
    register_generator(nullptr);
    flexpath::Fabric fabric;
    core::Workflow wf(fabric);
    for (const core::LaunchEntry& e : launch_entries(w, "histogram.txt")) {
        wf.add(e.component, e.nprocs, e.args);
    }
    return wf.fusion_plan().chains.size();
}

// ---- end-to-end metrics ---------------------------------------------------------

/// Set-up-only phases run before each timed phase of the end-to-end run.
constexpr int kSetupOnlyPhases = 2;
/// Share of an episode's time given to its saturated phase; the paced phase
/// gets the rest, so that each paced phase alone holds enough samples for
/// its p95 (at least ten beyond it).
constexpr double kSaturatedShare = 0.4;

Outcome measure_end_to_end(const Inputs& in, double seconds, int episodes,
                           const std::string& workdir) {
    const Workload& w = *in.w;
    const double episode_s = seconds / episodes;
    Outcome o;
    // One value per timed phase; each metric is the median over phases, so
    // one phase hit by a host stall cannot move it.
    std::vector<double> throughput;
    std::vector<double> rss;
    std::vector<double> latency_p50;
    std::vector<double> latency_p95;
    std::vector<double> publish_p50;
    std::vector<double> setup;
    std::size_t fewest_samples = static_cast<std::size_t>(-1);
    double worst_late_p95 = 0.0;
    for (int e = 0; e < episodes; ++e) {
        for (const bool paced : {false, true}) {
            // Set-up-only phases (step 0, then close) before each timed one:
            // set-up is short and noisy, so it gets more samples.
            for (int i = 0; i < kSetupOnlyPhases; ++i) {
                const PhaseResult s = run_phase_in_child(in, false, 0.0, workdir);
                account(o, s, "set-up phase");
                if (s.setup_s > 0.0) setup.push_back(s.setup_s);
            }
            const double phase_s =
                episode_s * (paced ? 1.0 - kSaturatedShare : kSaturatedShare);
            const PhaseResult r = run_phase_in_child(in, paced, phase_s, workdir);
            account(o, r, paced ? "paced phase" : "saturated phase");
            if (r.setup_s > 0.0) setup.push_back(r.setup_s);
            if (!paced) {
                if (r.throughput_mb_s > 0.0) throughput.push_back(r.throughput_mb_s);
                rss.push_back(r.peak_rss_mb);
                continue;
            }
            std::vector<double> publish;
            std::vector<double> late;
            for (std::size_t k = 1; k < r.gen.size(); ++k) {
                publish.push_back((r.gen[k].end - r.gen[k].begin) * 1e3);
                late.push_back((r.gen[k].begin - r.gen[k].due) * 1e3);
            }
            if (r.latency_ms.empty()) continue;
            latency_p50.push_back(pct(r.latency_ms, 50.0));
            latency_p95.push_back(pct(r.latency_ms, 95.0));
            publish_p50.push_back(pct(publish, 50.0));
            fewest_samples = std::min(fewest_samples, r.latency_ms.size());
            worst_late_p95 = std::max(worst_late_p95, pct(late, 95.0));
        }
    }
    o.metrics["throughput_mb_s"] = {pct(throughput, 50.0), "MB/s"};
    o.metrics["step_latency_p50_ms"] = {pct(latency_p50, 50.0), "ms"};
    o.metrics["step_latency_p95_ms"] = {pct(latency_p95, 50.0), "ms"};
    o.metrics["sim_publish_ms_p50"] = {pct(publish_p50, 50.0), "ms"};
    o.metrics["setup_s"] = {pct(setup, 50.0), "s"};
    o.metrics["peak_rss_mb"] = {pct(rss, 50.0), "MB"};
    if (latency_p95.empty()) fewest_samples = 0;
    o.notes.push_back(std::to_string(latency_p95.size()) + " paced phases at " +
                      obs::json_number(w.paced_rate) + " steps/s, at least " +
                      std::to_string(fewest_samples) + " latency samples each; " +
                      std::to_string(throughput.size()) + " saturated phases; " +
                      std::to_string(setup.size()) + " set-up samples");
    if (fewest_samples < 200) {
        o.notes.push_back("a paced phase has fewer than ten latency samples beyond p95");
    }
    if (worst_late_p95 > 1e3 / w.paced_rate) {
        o.notes.push_back("FLAG: the generator's p95 lateness exceeds one period in a "
                          "paced phase; the paced rate was not sustained");
    }
    return o;
}

// ---- per-layer metrics ----------------------------------------------------------

Outcome measure_layers(const Inputs& in, double seconds, int episodes,
                       const std::string& workdir, const std::string& trace_path) {
    const Workload& w = *in.w;
    Tracer tracer(true);
    Tracer off(false);
    auto& reg = obs::Registry::global();
    reg.reset();
    const double gather0 = reg.total("fusion.gather_fallbacks");
    const double phase_s = seconds / (3.0 * episodes);

    Outcome o;
    std::vector<double> plain_mb_s;
    std::vector<double> traced_mb_s;
    std::vector<double> top_share;
    std::vector<double> residual;
    std::vector<double> queue_s;
    std::vector<double> assemble_s;
    std::vector<double> put_ms;
    std::vector<double> end_step_ms;
    std::vector<double> late_ms;
    std::vector<std::vector<double>> compute(w.stages.size());
    std::size_t fused_units = 0;
    std::uint64_t steps = 0;
    for (int e = 0; e < episodes; ++e) {
        const PhaseResult plain = run_phase(in, false, phase_s, workdir, off, false);
        const PhaseResult sat = run_phase(in, false, phase_s, workdir, tracer, true);
        const PhaseResult paced = run_phase(in, true, phase_s, workdir, tracer, true);
        account(o, plain, "untraced saturated phase");
        account(o, sat, "traced saturated phase");
        account(o, paced, "traced paced phase");
        steps += plain.attempted + sat.attempted + paced.attempted;
        plain_mb_s.push_back(plain.throughput_mb_s);
        traced_mb_s.push_back(sat.throughput_mb_s);
        top_share.push_back(sat.cp_top_share);
        residual.push_back(sat.residual_pct);
        queue_s.push_back(sat.queue_s_per_step);
        assemble_s.push_back(sat.assemble_s_per_step);
        fused_units = sat.fused_units;
        for (std::size_t i = 0; i < compute.size(); ++i) {
            compute[i].insert(compute[i].end(), sat.stage_compute_ms[i].begin(),
                              sat.stage_compute_ms[i].end());
        }
        for (std::size_t k = 1; k < paced.gen.size(); ++k) {
            const StepTiming& t = paced.gen[k];
            put_ms.push_back((t.put - t.begin) * 1e3);
            end_step_ms.push_back((t.end - t.put) * 1e3);
            late_ms.push_back((t.begin - t.due) * 1e3);
        }
    }

    Metrics& m = o.metrics;
    const double per_step = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
    m["gen.put_ms_p50"] = {pct(put_ms, 50.0), "ms"};
    m["gen.end_step_ms_p50"] = {pct(end_step_ms, 50.0), "ms"};
    m["gen.late_ms_p95"] = {pct(late_ms, 95.0), "ms"};
    if (m["gen.late_ms_p95"].value > 1e3 / w.paced_rate) {
        o.notes.push_back("FLAG: gen.late_ms_p95 exceeds one period");
    }

    // ---- program counters over every phase above ------------------------
    m["flexpath.backpressure_wait_s"] = {
        reg.total("flexpath.backpressure_wait_seconds") * per_step, "s/step"};
    m["flexpath.acquire_wait_s"] = {reg.total("flexpath.acquire_wait_seconds") * per_step,
                                    "s/step"};
    m["flexpath.prefetch_wait_s"] = {
        reg.total("flexpath.prefetch_wait_seconds") * per_step, "s/step"};
    m["flexpath.queue_s"] = {pct(queue_s, 50.0), "s/step"};
    m["flexpath.assemble_s"] = {pct(assemble_s, 50.0), "s/step"};
    const double hits = reg.total("flexpath.plan_hits");
    const double lookups = hits + reg.total("flexpath.plan_misses");
    const double reads = reg.total("flexpath.reads");
    m["flexpath.plan_hit_ratio"] = {ratio(hits, lookups), "ratio"};
    m["flexpath.plan_lookups"] = {lookups, "count"};
    m["flexpath.zero_copy_ratio"] = {ratio(reg.total("flexpath.zero_copy_reads"), reads),
                                     "ratio"};
    m["flexpath.reads"] = {reads, "count"};
    m["flexpath.bytes_read_per_step"] = {reg.total("flexpath.bytes_read") * per_step,
                                         "B/step"};
    const double pool_hits = reg.total("pool.hits");
    const double acquires = pool_hits + reg.total("pool.misses");
    m["pool.hit_ratio"] = {ratio(pool_hits, acquires), "ratio"};
    m["pool.acquires"] = {acquires, "count"};
    m["pool.bytes_allocated_mb"] = {reg.total("pool.bytes_allocated") / 1e6, "MB"};
    double queue_hw = 0.0;
    double read_ahead_hw = 0.0;
    double outstanding_hw = 0.0;
    double append_p50 = 0.0;
    for (const obs::MetricSnapshot& s : reg.snapshot()) {
        if (s.name == "flexpath.queue_depth") queue_hw = std::max(queue_hw, s.high_water);
        if (s.name == "flexpath.read_ahead_depth") {
            read_ahead_hw = std::max(read_ahead_hw, s.high_water);
        }
        if (s.name == "pool.outstanding_bytes") {
            outstanding_hw = std::max(outstanding_hw, s.high_water);
        }
        // The generator's stream: its append runs inside the generator's
        // end_step, i.e. on the simulation's publish path.
        const obs::Labels gen_label{{"stream", kGenStream}};
        if (s.name == "durable.append_seconds" && s.labels == gen_label) {
            append_p50 = s.p50 * 1e3;
        }
    }
    m["flexpath.queue_depth_hw"] = {queue_hw, "count"};
    m["flexpath.read_ahead_hw"] = {read_ahead_hw, "count"};
    m["pool.outstanding_hw_mb"] = {outstanding_hw / 1e6, "MB"};

    // Every compute role any workload has; an instance this workload does
    // not run reads 0.
    for (const Workload& any : workloads()) {
        for (const Stage& st : any.stages) m["core." + st.role + ".compute_ms_p50"] = {0.0, "ms"};
    }
    for (std::size_t i = 0; i < w.stages.size(); ++i) {
        m["core." + w.stages[i].role + ".compute_ms_p50"] = {pct(compute[i], 50.0), "ms"};
    }
    m["core.critical_path.top_share"] = {pct(top_share, 50.0), "ratio"};
    m["fusion.units"] = {static_cast<double>(fused_units), "count"};
    m["fusion.gather_fallbacks"] = {reg.total("fusion.gather_fallbacks") - gather0,
                                    "count"};
    m["mpi.collectives_per_step"] = {reg.total("mpi.collectives") * per_step, "1/step"};
    m["mpi.collective_wait_s"] = {reg.total("mpi.collective_wait_seconds") * per_step,
                                  "s/step"};

    // Durable log: the real appends of this run; 0 on workloads without it.
    double payload_mb = 0.0;
    if (w.durable) {
        // Array bytes published into the logged (materialized) streams.
        for (const Hop& hop : hops(w)) {
            payload_mb += static_cast<double>(steps) *
                          static_cast<double>(hop.shape.volume() * sizeof(double)) / 1e6;
        }
    }
    m["durable.append_ms_p50"] = {append_p50, "ms"};
    m["durable.write_amplification"] = {
        ratio(reg.total("durable.bytes_appended") / 1e6, payload_mb), "ratio"};
    m["durable.payload_mb"] = {payload_mb, "MB"};
    m["durable.fsyncs"] = {reg.total("durable.fsyncs"), "count"};
    m["durable.segments_collected"] = {reg.total("durable.segments_collected"), "count"};

    // ---- timed replays of each layer's public functions -------------------
    const WireStep ws = wire_step(in);
    m["util.copy_ms_per_step"] = {replay_copy_ms(w, tracer), "ms"};
    const ffs::Bytes meta_wire = flexpath::encode_step_meta(ws.meta);
    const ffs::Bytes wire = flexpath::encode_step_blocks(ws.blocks);
    m["ffs.encode_ms_per_step"] = {
        replay_ms(tracer, "replay.ffs_encode", 50,
                  [&] {
                      keep(flexpath::encode_step_meta(ws.meta).size());
                      keep(flexpath::encode_step_blocks(ws.blocks).size());
                  }),
        "ms"};
    m["ffs.decode_ms_per_step"] = {
        replay_ms(tracer, "replay.ffs_decode", 20,
                  [&] {
                      keep(flexpath::decode_step_meta(meta_wire).vars.size());
                      keep(flexpath::decode_step_blocks(wire).size());
                  }),
        "ms"};
    const double crc_ms = replay_ms(tracer, "replay.crc32c", 20, [&] {
        keep(ffs::crc32c(ws.payload()));
    });
    m["ffs.crc32c_gb_s"] = {
        static_cast<double>(ws.payload().size()) / 1e9 / (crc_ms / 1e3), "GB/s"};
    m["durable.load_ms_per_step"] = {
        w.durable ? replay_durable_load_ms(in, fs::path(workdir) / w.name / "replay_log",
                                           tracer)
                  : 0.0,
        "ms"};

    register_generator(nullptr);  // lint only asks the generator for its ports
    const std::vector<core::LaunchEntry> entries = launch_entries(w, "histogram.txt");
    m["lint.ms"] = {replay_ms(tracer, "replay.lint_wiring", 50,
                              [&] { g_keep += lint::lint_wiring(entries).errors; }),
                    "ms"};

    const double plain = pct(plain_mb_s, 50.0);
    m["obs.trace_overhead_pct"] = {
        plain > 0.0 ? 100.0 * (plain - pct(traced_mb_s, 50.0)) / plain : 0.0, "%"};
    m["ledger.residual_pct"] = {pct(residual, 50.0), "%"};

    // The hand-fused single-threaded baseline: the reference loop itself.
    std::uint64_t ref_bytes = 0;
    const double t0 = now();
    double t1 = t0;
    for (std::size_t i = 0; t1 - t0 < 0.3; ++i) {
        const std::vector<double>& v = in.variants[i % in.variants.size()];
        const double s0 = now();
        keep(reference_histogram(w, v).counts.front());
        t1 = now();
        tracer.span("replay.reference", "replay", s0, t1, static_cast<std::int64_t>(i));
        ref_bytes += w.step_bytes();
    }
    m["baseline.reference_mb_s"] = {static_cast<double>(ref_bytes) / 1e6 / (t1 - t0),
                                    "MB/s"};

    tracer.write(trace_path);
    o.notes.push_back("span trace: " + trace_path);
    return o;
}

}  // namespace perfbench
