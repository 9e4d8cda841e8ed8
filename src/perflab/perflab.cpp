#include "perflab/perflab.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/utsname.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace fs = std::filesystem;

namespace aw::perflab {

// ---------------------------------------------------------------------
// StatAccumulator

void
StatAccumulator::add(double x)
{
    samples_.push_back(x);
    // Welford's update: numerically stable for long runs of close
    // values, which is exactly what round times are.
    double n = static_cast<double>(samples_.size());
    double delta = x - mean_;
    mean_ += delta / n;
    m2_ += delta * (x - mean_);
}

double
StatAccumulator::min() const
{
    return samples_.empty()
               ? 0
               : *std::min_element(samples_.begin(), samples_.end());
}

double
StatAccumulator::max() const
{
    return samples_.empty()
               ? 0
               : *std::max_element(samples_.begin(), samples_.end());
}

double
StatAccumulator::sum() const
{
    return mean_ * static_cast<double>(samples_.size());
}

double
StatAccumulator::stddev() const
{
    if (samples_.size() < 2)
        return 0;
    return std::sqrt(m2_ / static_cast<double>(samples_.size() - 1));
}

double
StatAccumulator::median() const
{
    if (samples_.empty())
        return 0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    size_t mid = sorted.size() / 2;
    if (sorted.size() % 2 == 1)
        return sorted[mid];
    return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double
StatAccumulator::cv() const
{
    return mean_ == 0 ? 0 : stddev() / mean_;
}

// ---------------------------------------------------------------------
// BenchContext

void
BenchContext::setExtra(const std::string &key, double value)
{
    extra_.emplace_back(key, obs::jsonNumber(value));
}

void
BenchContext::setExtraString(const std::string &key,
                             const std::string &value)
{
    extra_.emplace_back(key, "\"" + obs::jsonEscape(value) + "\"");
}

void
BenchContext::fail(const std::string &reason)
{
    if (!failed_)
        failReason_ = reason;
    failed_ = true;
}

// ---------------------------------------------------------------------
// Registry

namespace {

std::vector<BenchSpec> &
benchStore()
{
    static std::vector<BenchSpec> store;
    return store;
}

bool
validBenchName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name)
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    return true;
}

} // namespace

bool
registerBench(BenchSpec spec)
{
    if (!validBenchName(spec.name))
        fatal("perflab: malformed bench name '%s' (want [a-z0-9_]+)",
              spec.name.c_str());
    if (!spec.round)
        fatal("perflab: bench '%s' has no round callback",
              spec.name.c_str());
    for (const auto &existing : benchStore())
        if (existing.name == spec.name)
            fatal("perflab: duplicate bench name '%s'", spec.name.c_str());
    benchStore().push_back(std::move(spec));
    return true;
}

std::vector<const BenchSpec *>
registeredBenches()
{
    std::vector<const BenchSpec *> out;
    for (const auto &spec : benchStore())
        out.push_back(&spec);
    std::sort(out.begin(), out.end(),
              [](const BenchSpec *a, const BenchSpec *b) {
                  return a->name < b->name;
              });
    return out;
}

bool
matchesFilter(const std::string &name, const std::string &filter)
{
    if (filter.empty())
        return true;
    size_t pos = 0;
    while (pos <= filter.size()) {
        size_t comma = filter.find(',', pos);
        if (comma == std::string::npos)
            comma = filter.size();
        std::string part = filter.substr(pos, comma - pos);
        if (!part.empty() && name.find(part) != std::string::npos)
            return true;
        pos = comma + 1;
    }
    return false;
}

// ---------------------------------------------------------------------
// Fingerprint

MachineInfo
machineInfo()
{
    MachineInfo info;
    char host[256] = {0};
    if (gethostname(host, sizeof(host) - 1) == 0)
        info.host = host;
    struct utsname un = {};
    if (uname(&un) == 0) {
        info.os = std::string(un.sysname) + " " + un.release;
        info.arch = un.machine;
    }
    info.cpus = static_cast<int>(std::thread::hardware_concurrency());
    return info;
}

std::string
gitRevision()
{
    std::error_code ec;
    fs::path dir = fs::current_path(ec);
    if (ec)
        return "unknown";
    for (int depth = 0; depth < 16 && !dir.empty(); ++depth) {
        fs::path head = dir / ".git" / "HEAD";
        std::ifstream in(head);
        if (in) {
            std::string line;
            std::getline(in, line);
            if (line.rfind("ref: ", 0) == 0) {
                std::ifstream ref(dir / ".git" / line.substr(5));
                if (ref)
                    std::getline(ref, line);
                else
                    return "unknown";
            }
            return line.size() > 12 ? line.substr(0, 12) : line;
        }
        fs::path parent = dir.parent_path();
        if (parent == dir)
            break;
        dir = parent;
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// aw.bench.v1 artifact

namespace {

/** Env knobs worth recording when set: they change what a number means. */
const char *const kRecordedEnv[] = {
    "AW_THREADS",      "AW_SIM_THREADS",  "AW_SIM_DETAIL",
    "AW_CACHE",        "AW_FAULTS",       "AW_POWERSCOPE",
    "AW_BENCH_ROUNDS", "AW_BENCH_FILTER", "AW_BENCH_SLOWDOWN"};

} // namespace

std::string
benchJson(const BenchSpec &spec, const BenchContext &ctx, int roundsRun,
          int warmupRun)
{
    const StatAccumulator &s = ctx.stats();
    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"aw.bench.v1\",\n"
        << "  \"bench\": \"" << obs::jsonEscape(spec.name) << "\",\n"
        << "  \"description\": \"" << obs::jsonEscape(spec.description)
        << "\",\n"
        << "  \"unit\": \"sec_per_round\",\n"
        << "  \"rounds\": " << roundsRun << ",\n"
        << "  \"warmup_rounds\": " << warmupRun << ",\n"
        << "  \"stats\": {\n"
        << "    \"min\": " << obs::jsonNumber(s.min()) << ",\n"
        << "    \"mean\": " << obs::jsonNumber(s.mean()) << ",\n"
        << "    \"median\": " << obs::jsonNumber(s.median()) << ",\n"
        << "    \"max\": " << obs::jsonNumber(s.max()) << ",\n"
        << "    \"stddev\": " << obs::jsonNumber(s.stddev()) << ",\n"
        << "    \"cv\": " << obs::jsonNumber(s.cv()) << "\n"
        << "  },\n"
        << "  \"tolerance_pct\": " << obs::jsonNumber(spec.tolerancePct)
        << ",\n"
        << "  \"failed\": " << (ctx.failed() ? "true" : "false") << ",\n";
    if (ctx.failed())
        out << "  \"fail_reason\": \""
            << obs::jsonEscape(ctx.failReason()) << "\",\n";

    MachineInfo m = machineInfo();
    out << "  \"machine\": {\"host\": \"" << obs::jsonEscape(m.host)
        << "\", \"os\": \"" << obs::jsonEscape(m.os)
        << "\", \"arch\": \"" << obs::jsonEscape(m.arch)
        << "\", \"cpus\": " << m.cpus << "},\n"
        << "  \"git_rev\": \"" << obs::jsonEscape(gitRevision())
        << "\",\n"
        // The effective worker-thread count a bench round could have
        // used: the pipeline pool (AW_THREADS) or the sharded
        // simulator's pool (AW_SIM_THREADS), whichever is wider.
        << "  \"threads\": "
        << std::max(parallelThreadCount(), simThreadCount()) << ",\n";

    out << "  \"env\": {";
    bool first = true;
    for (const char *knob : kRecordedEnv) {
        const char *v = std::getenv(knob);
        if (v == nullptr)
            continue;
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << knob << "\": \"" << obs::jsonEscape(v) << "\"";
    }
    out << "},\n";

    out << "  \"extra\": {";
    first = true;
    for (const auto &[key, fragment] : ctx.extras()) {
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << obs::jsonEscape(key) << "\": " << fragment;
    }
    out << "}\n}\n";
    return out.str();
}

// ---------------------------------------------------------------------
// Runner

// Friend of BenchContext: drives rounds and exposes internals to the
// free runBenches below without widening the public API.
struct Runner
{
    static void setRound(BenchContext &ctx, int idx, int total)
    {
        ctx.roundIdx_ = idx;
        ctx.rounds_ = total;
    }
    static void addSample(BenchContext &ctx, double sec)
    {
        ctx.stats_.add(sec);
    }
};

namespace {

struct GateOutcome
{
    std::string bench;
    double baseMin = 0;
    double freshMin = 0;
    double regressionPct = 0;
    double tolerancePct = 0;
    bool ok = true;
};

std::string
baselinePath(const std::string &dir, const std::string &name)
{
    return dir + "/BENCH_" + name + ".json";
}

bool
readBaseline(const std::string &path, double &min, double &tolerance)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buf;
    buf << in.rdbuf();
    obs::JsonValue doc;
    if (!obs::tryParseJson(buf.str(), doc) || !doc.isObject())
        fatal("perflab: baseline %s is not valid JSON", path.c_str());
    const obs::JsonValue *schema = doc.find("schema");
    if (schema == nullptr || schema->asString() != "aw.bench.v1")
        fatal("perflab: baseline %s is not an aw.bench.v1 document",
              path.c_str());
    // The gate compares min-vs-min: the minimum of N rounds is the
    // estimator least sensitive to scheduler/noisy-neighbour
    // interference (medians drift 50%+ on loaded CI machines), while
    // a genuine code regression — and the synthetic AW_BENCH_SLOWDOWN
    // negative control — shifts the floor itself.
    min = doc.at("stats").at("min").asNumber();
    tolerance = doc.at("tolerance_pct").asNumber();
    return true;
}

} // namespace

int
runBenches(const RunOptions &opts)
{
    auto benches = registeredBenches();
    std::vector<const BenchSpec *> selected;
    for (const BenchSpec *spec : benches) {
        if (!matchesFilter(spec->name, opts.filter))
            continue;
        // Gate mode runs exactly the committed-baseline set; anything
        // else would compare against nothing.
        if (!opts.baselineDir.empty() && !opts.updateBaselines &&
            !fs::exists(baselinePath(opts.baselineDir, spec->name)))
            continue;
        selected.push_back(spec);
    }

    if (opts.list) {
        Table t({"bench", "rounds", "warmup", "tol%", "description"});
        for (const BenchSpec *spec : selected)
            t.addRow({spec->name, std::to_string(spec->defaultRounds),
                      std::to_string(spec->defaultWarmup),
                      Table::num(spec->tolerancePct, 0),
                      spec->description});
        std::printf("%s\n", t.render().c_str());
        return 0;
    }
    if (selected.empty()) {
        std::fprintf(stderr,
                     "perflab: no benches match filter '%s'%s\n",
                     opts.filter.c_str(),
                     opts.baselineDir.empty()
                         ? ""
                         : " with a baseline present");
        return 1;
    }
    if (opts.slowdown > 1.0)
        std::printf("perflab: synthetic slowdown x%.2f injected into "
                    "every measured round\n",
                    opts.slowdown);

    Table summary({"bench", "rounds", "min (s)", "median (s)", "mean (s)",
                   "max (s)", "cv", "status"});
    std::vector<GateOutcome> gates;
    bool anyFailed = false;

    for (const BenchSpec *spec : selected) {
        BenchContext ctx;
        int rounds = opts.rounds > 0 ? opts.rounds : spec->defaultRounds;
        int warmup = opts.warmup >= 0 ? opts.warmup : spec->defaultWarmup;
        std::printf("-- %s (%d round%s + %d warmup)\n", spec->name.c_str(),
                    rounds, rounds == 1 ? "" : "s", warmup);

        if (spec->init) {
            Runner::setRound(ctx, -warmup - 1, rounds);
            spec->init(ctx);
        }
        for (int w = 0; w < warmup && !ctx.failed(); ++w) {
            Runner::setRound(ctx, w - warmup, rounds);
            spec->round(ctx);
        }
        for (int r = 0; r < rounds && !ctx.failed(); ++r) {
            Runner::setRound(ctx, r, rounds);
            auto t0 = std::chrono::steady_clock::now();
            spec->round(ctx);
            auto t1 = std::chrono::steady_clock::now();
            double sec = std::chrono::duration<double>(t1 - t0).count();
            Runner::addSample(ctx, sec * opts.slowdown);
        }
        if (spec->fini) {
            Runner::setRound(ctx, rounds, rounds);
            spec->fini(ctx);
        }

        const StatAccumulator &s = ctx.stats();
        std::string status = ctx.failed() ? "FAILED" : "ok";
        anyFailed = anyFailed || ctx.failed();
        if (ctx.failed())
            std::fprintf(stderr, "perflab: %s FAILED: %s\n",
                         spec->name.c_str(), ctx.failReason().c_str());
        auto sec = [](double v) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.6g", v);
            return std::string(buf);
        };
        summary.addRow({spec->name, std::to_string(s.count()),
                        sec(s.min()), sec(s.median()), sec(s.mean()),
                        sec(s.max()), Table::num(s.cv(), 3), status});

        std::string doc = benchJson(*spec, ctx, rounds, warmup);
        std::string outPath = opts.outDir + "/BENCH_" + spec->name +
                              ".json";
        writeFileAtomic(outPath, doc);
        std::printf("[json] %s\n", outPath.c_str());

        if (!opts.baselineDir.empty()) {
            std::string basePath =
                baselinePath(opts.baselineDir, spec->name);
            if (opts.updateBaselines) {
                writeFileAtomic(basePath, doc);
                std::printf("[baseline] %s\n", basePath.c_str());
            } else {
                GateOutcome g;
                g.bench = spec->name;
                if (readBaseline(basePath, g.baseMin, g.tolerancePct)) {
                    g.freshMin = s.min();
                    g.regressionPct =
                        g.baseMin > 0
                            ? (g.freshMin / g.baseMin - 1.0) * 100.0
                            : 0.0;
                    g.ok = g.regressionPct <= g.tolerancePct;
                    gates.push_back(g);
                }
            }
        }
    }

    std::printf("\n%s\n", summary.render().c_str());

    bool gateBreach = false;
    if (!gates.empty()) {
        Table t({"bench", "baseline min (s)", "fresh min (s)",
                 "delta", "tolerance", "gate"});
        for (const GateOutcome &g : gates) {
            gateBreach = gateBreach || !g.ok;
            char base[32], fresh[32];
            std::snprintf(base, sizeof base, "%.6g", g.baseMin);
            std::snprintf(fresh, sizeof fresh, "%.6g", g.freshMin);
            t.addRow({g.bench, base, fresh,
                      Table::pct(g.regressionPct, 1),
                      Table::pct(g.tolerancePct, 0),
                      g.ok ? "pass" : "REGRESSION"});
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("perf gate: %s\n",
                    gateBreach ? "REGRESSION DETECTED" : "pass");
    }

    return (anyFailed || gateBreach) ? 1 : 0;
}

int
runMain(int argc, char **argv)
{
    obs::initSinksFromEnv();

    RunOptions opts;
    if (const char *env = std::getenv("AW_BENCH_FILTER"); env && *env)
        opts.filter = env;
    if (const char *env = std::getenv("AW_BENCH_ROUNDS"); env && *env)
        opts.rounds = std::atoi(env);
    if (const char *env = std::getenv("AW_BENCH_SLOWDOWN"); env && *env)
        opts.slowdown = std::atof(env);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("perflab: %s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--list")
            opts.list = true;
        else if (arg == "--filter")
            opts.filter = value("--filter");
        else if (arg == "--rounds")
            opts.rounds = std::atoi(value("--rounds").c_str());
        else if (arg == "--warmup")
            opts.warmup = std::atoi(value("--warmup").c_str());
        else if (arg == "--out-dir")
            opts.outDir = value("--out-dir");
        else if (arg == "--baseline-dir")
            opts.baselineDir = value("--baseline-dir");
        else if (arg == "--update-baselines")
            opts.updateBaselines = true;
        else if (arg == "--slowdown")
            opts.slowdown = std::atof(value("--slowdown").c_str());
        else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--list] [--filter NAMES] [--rounds N]\n"
                "       [--warmup N] [--out-dir DIR] [--baseline-dir DIR]\n"
                "       [--update-baselines] [--slowdown FACTOR]\n"
                "\n"
                "Registry-based micro-benchmark runner. Emits one\n"
                "aw.bench.v1 JSON per bench into --out-dir [results].\n"
                "With --baseline-dir, runs the benches with committed\n"
                "baselines and fails on a median regression past each\n"
                "baseline's tolerance_pct; --update-baselines rewrites\n"
                "them instead. Env: AW_BENCH_FILTER, AW_BENCH_ROUNDS,\n"
                "AW_BENCH_SLOWDOWN.\n",
                argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "perflab: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (opts.updateBaselines && opts.baselineDir.empty())
        opts.baselineDir = "results/baselines";
    return runBenches(opts);
}

} // namespace aw::perflab
