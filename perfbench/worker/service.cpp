/**
 * @file
 * Workload service-mixed: geyserd over loopback TCP, driven by a closed
 * loop of four clients, each waiting for its reply before sending the
 * next request. Every round starts its own daemon with a fresh
 * persistent-cache directory, so every round sees the same cold daemon
 * and the same traffic, in three phases that the clients pull from in
 * turn:
 *
 *  1. first-time submits, in paper order: four small and medium
 *     Table-1 rows under Geyser, each sent by every client at once (one
 *     compile and three duplicates that wait on it: single-flight), and
 *     one row under Baseline and OptiMap;
 *  2. repeats: kRepeats programs drawn by the seed, sent again and
 *     served from the persistent cache;
 *  3. sweeps: kSweeps `batch` requests, VQE and QAOA parameter sweeps
 *     with seeded angles, sent one after the other by the first client.
 *
 * The last client churns: it reconnects for every request. After the
 * timed rounds the worker checks every reply against an in-process
 * compile() of the same program.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <poll.h>
#include <set>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "algos/algos.hpp"
#include "algos/suite.hpp"
#include "fleet/skeleton.hpp"
#include "geyser/pipeline.hpp"
#include "io/qasm_parser.hpp"
#include "io/serialize.hpp"
#include "service/client.hpp"
#include "workloads.hpp"

extern char **environ;

namespace perfbench {

using namespace geyser;
using namespace geyser::service;

namespace {

constexpr int kClients = 4;        ///< Closed-loop clients; the last churns.
constexpr int kRepeats = 2;        ///< Phase-2 cache-hit repeats per round.
constexpr int kSweeps = 8;         ///< Batch sweeps per round.
constexpr int kSweepMembers = 256; ///< Members of each batch sweep.
constexpr int kBoots = 3;          ///< Daemon starts timed per round.
constexpr int kMinRounds = 5;      ///< Rounds per run, at least.
/**
 * The mix in paper order: rows submitted under Geyser by every client at
 * once, and a row submitted under Baseline and OptiMap. With these
 * counts (16 compile-bound submits and 4 short ones per round) the
 * pooled p50 falls in the middle of the qaoa-5 compiles and the p90 in
 * the middle of the qft-10 ones, the two rows whose cold compile time
 * varies least between daemons; millisecond submits would put both
 * percentiles on thread wake-ups, which follow the shared host's load
 * several times more than compile work does.
 */
struct MixRow
{
    const char *row;
    bool geyser;
};
constexpr MixRow kMix[] = {{"vqe-4", true},
                           {"qaoa-5", true},
                           {"qft-5", true},
                           {"multiplier-5", false},
                           {"qft-10", true}};

/** One distinct program of the mix. */
struct Program
{
    std::string row;
    Technique technique = Technique::Geyser;
    std::string qasm;
};

/** The traffic of one round, identical in every round of a run. */
struct Plan
{
    std::vector<Program> programs;
    std::vector<int> firstTime;       ///< Phase 1, program indices.
    std::vector<int> repeats;         ///< Phase 2, program indices.
    std::vector<std::string> sweeps;  ///< Phase 3, %%-separated payloads.
};

/** Re-draw every distinct rotation angle of a circuit from `seed`. */
Circuit
redrawAngles(Circuit c, uint64_t seed)
{
    std::map<double, double> drawn;
    for (Gate &g : c.gates())
        for (int p = 0; p < g.numParams(); ++p) {
            auto [it, fresh] = drawn.emplace(g.param(p), 0.0);
            if (fresh)
                it->second = static_cast<double>(
                                 mix(seed + drawn.size()) >> 11) *
                             0x1.0p-53 * 6.283185307179586;
            g.setParam(p, it->second);
        }
    return c;
}

/**
 * Drop the sweep members the daemon's fleet could not re-bind against
 * the skeleton of the first member, so it would compile them in full.
 * Now and then a random QAOA draw transpiles to another structure, and
 * each such member costs a full Geyser compile (about as much as two
 * thousand re-binds): left in, the seed alone would set
 * sweep_members_per_s. The first member must itself yield a plan.
 */
void
keepRebindable(std::vector<Circuit> &members)
{
    const PipelineOptions options;
    const std::vector<fleet::SkeletonGroup> groups =
        fleet::groupBySkeleton(members);
    if (groups.size() != 1)
        throw std::logic_error("a sweep's members differ in structure");
    const auto plan = fleet::buildSkeletonPlan(
        Technique::Geyser, members.front(), groups.front().varyingSlots,
        options);
    if (!plan) {
        members.erase(members.begin());
        return;
    }
    std::erase_if(members, [&](const Circuit &m) {
        return !fleet::rebindMember(*plan, m, options);
    });
}

Plan
makePlan(uint64_t seed)
{
    Plan plan;
    for (const MixRow &m : kMix) {
        const std::string qasm = circuitToQasm(benchmarkByName(m.row).make());
        if (m.geyser) {
            plan.programs.push_back({m.row, Technique::Geyser, qasm});
            for (int c = 0; c < kClients; ++c)
                plan.firstTime.push_back(
                    static_cast<int>(plan.programs.size() - 1));
            continue;
        }
        for (const Technique t : {Technique::Baseline, Technique::OptiMap}) {
            plan.programs.push_back({m.row, t, qasm});
            plan.firstTime.push_back(
                static_cast<int>(plan.programs.size() - 1));
        }
    }
    // Repeats: kRepeats distinct programs drawn by the seed.
    std::vector<int> order(plan.programs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    uint64_t state = seed;
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[(state = mix(state)) % i]);
    plan.repeats.assign(order.begin(), order.begin() + kRepeats);

    // Sweeps, VQE and QAOA in turn, each member with its own seed. VQE:
    // a 5-qubit, 10-layer ansatz (a shape no submitted row shares, so
    // its cost does not hinge on what the memo already holds). QAOA: the
    // Table-1 qaoa-5 graph with every cost/mixer angle re-drawn.
    const Circuit qaoaBase = benchmarkByName("qaoa-5").make();
    uint64_t draw = 0;
    for (int w = 0; w < kSweeps; ++w) {
        std::vector<Circuit> members;
        int skipped = 0;
        while (static_cast<int>(members.size()) < kSweepMembers) {
            const uint64_t s = mix(seed * 7919 + draw++);
            members.push_back(w % 2 == 0 ? vqeBenchmark(5, 10, s)
                                         : redrawAngles(qaoaBase, s));
            if (static_cast<int>(members.size()) == kSweepMembers) {
                const size_t before = members.size();
                keepRebindable(members);
                skipped += static_cast<int>(before - members.size());
            }
        }
        if (skipped > 0)
            std::fprintf(stderr,
                         "perfbench: sweep %d: redrew %d member(s) that fall "
                         "back to a full compile\n",
                         w, skipped);
        std::string sweep;
        for (size_t m = 0; m < members.size(); ++m)
            sweep += (m ? "%%\n" : "") + circuitToQasm(members[m]);
        plan.sweeps.push_back(std::move(sweep));
    }
    return plan;
}

/** A geyserd child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::vector<std::string> &flags,
           const std::string &logPath)
    {
        int out[2];
        if (pipe(out) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&actions, out[0]);
        posix_spawn_file_actions_addclose(&actions, out[1]);
        posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                         logPath.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        std::vector<std::string> argv = {exe, "--port", "0"};
        argv.insert(argv.end(), flags.begin(), flags.end());
        std::vector<char *> cargv;
        for (auto &a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                                   cargv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(out[1]);
        stdout_ = out[0];
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + exe + ": " +
                                     std::strerror(rc));
        }
        try {
            port_ = readPort();
        } catch (...) {
            release();
            throw;
        }
    }

    ~Daemon() { release(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    pid_t pid() const { return pid_; }

    /**
     * Ask for a protocol shutdown and reap; SIGKILL after 30 s. Returns
     * false unless the daemon exited with status 0.
     */
    bool stop()
    {
        try {
            ServiceClient client = ServiceClient::overTcp(port_);
            Request req;
            req.verb = Verb::Shutdown;
            client.roundTrip(req);
        } catch (const std::exception &) {
            // Already gone; reaped below.
        }
        const double deadline = now() + 30.0;
        int status = 0;
        while (now() < deadline) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        release();
        return false;
    }

  private:
    /** Kill and reap a daemon still running; close the banner pipe. */
    void release()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        if (stdout_ >= 0) {
            ::close(stdout_);
            stdout_ = -1;
        }
    }

    /** Banner: "geyserd: listening on 127.0.0.1:<port> (...)". */
    int readPort()
    {
        std::string line;
        char ch = 0;
        pollfd pfd{stdout_, POLLIN, 0};
        while (line.find('\n') == std::string::npos) {
            if (poll(&pfd, 1, 60000) <= 0 || ::read(stdout_, &ch, 1) != 1)
                throw std::runtime_error("geyserd printed no banner");
            line += ch;
        }
        const size_t colon = line.rfind(':', line.find(" ("));
        return std::stoi(line.substr(colon + 1));
    }

    pid_t pid_ = -1;
    int stdout_ = -1;
    int port_ = 0;
};

/** What the client saw of one submit. */
struct SubmitRecord
{
    int program = -1;
    bool ok = false;
    double latencyMs = 0.0;
    uint64_t id = 0;
    Response reply;
};

/** What the client saw of one batch. */
struct BatchRecord
{
    int sweep = -1;
    bool ok = false;
    double latencyMs = 0.0;
    Response reply;
};

/**
 * Submit and poll until the job is terminal, then fetch its result. The
 * poll interval grows with the wait (a fiftieth of it, 50 us to 10 ms),
 * so polling adds at most ~2% to a measured latency, and the clients
 * waiting on a long compile poll about a hundred times a second.
 */
SubmitRecord
submitAndWait(ServiceClient &client, const Program &p)
{
    SubmitRecord rec;
    const double t0 = now();
    const Response submitted = client.submit(p.qasm, p.technique);
    const std::string *id = submitted.find("id");
    if (!submitted.ok || id == nullptr) {
        rec.reply = submitted;
        return rec;
    }
    rec.id = std::stoull(*id);
    for (;;) {
        const Response st = client.status(rec.id);
        const std::string *state = st.find("state");
        if (!st.ok || state == nullptr) {
            rec.reply = st;
            return rec;
        }
        if (*state != "queued" && *state != "running")
            break;
        const double waited = now() - t0;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::clamp(waited / 50.0, 50e-6, 10e-3)));
    }
    rec.reply = client.result(rec.id);
    rec.latencyMs = (now() - t0) * 1000.0;
    const std::string *state = rec.reply.find("state");
    rec.ok = rec.reply.ok && state != nullptr && *state == "done";
    return rec;
}

/** Everything one round produced. */
struct Round
{
    std::vector<double> setupS;  ///< Daemon start to first ping, per boot.
    double wallS = 0.0;
    ProcStats proc;
    std::vector<SubmitRecord> submits;
    std::vector<BatchRecord> batches;
    std::vector<std::string> errors;  ///< Client-side exceptions.
    std::vector<std::string> daemonErrors;  ///< Unclean daemon exits.
    std::string metricsPath, accessLogPath;
};

Round
runRound(const Plan &plan, const std::string &geyserd,
         const std::string &dir, bool traced)
{
    Round round;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/cache");
    const std::vector<std::string> base = {"--cache-dir", dir + "/cache"};
    std::vector<std::string> flags = base;
    if (traced) {
        round.metricsPath = dir + "/metrics.jsonl";
        round.accessLogPath = dir + "/access.jsonl";
        flags.insert(flags.end(),
                     {"--metrics", round.metricsPath, "--access-log",
                      round.accessLogPath});
    }
    // Set-up: boot a daemon and see it answer. The first boots are
    // probes, stopped at once; the last one serves the round.
    const std::string log = dir + "/geyserd.log";
    const int boots = traced ? 1 : kBoots;
    for (int b = 1; b < boots; ++b) {
        const double s0 = now();
        Daemon probe(geyserd, base, log);
        ServiceClient::overTcp(probe.port()).ping();
        round.setupS.push_back(now() - s0);
        if (!probe.stop())
            round.daemonErrors.push_back("a probe geyserd exited uncleanly");
    }
    const double s0 = now();
    Daemon daemon(geyserd, flags, log);
    ServiceClient::overTcp(daemon.port()).ping();
    round.setupS.push_back(now() - s0);

    std::mutex mutex;
    std::vector<std::optional<ServiceClient>> conns(kClients);
    // One phase: the clients pull the next program from the shared
    // queue until it is empty.
    auto phase = [&](const std::vector<int> &queue) {
        std::atomic<size_t> next{0};
        auto client = [&](int c) {
            const bool churn = c == kClients - 1;
            auto &conn = conns[static_cast<size_t>(c)];
            for (size_t i; (i = next++) < queue.size();) {
                try {
                    if (churn || !conn)
                        conn.emplace(ServiceClient::overTcp(daemon.port()));
                    SubmitRecord rec = submitAndWait(
                        *conn, plan.programs[static_cast<size_t>(queue[i])]);
                    rec.program = queue[i];
                    std::lock_guard<std::mutex> lock(mutex);
                    round.submits.push_back(std::move(rec));
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(mutex);
                    round.errors.push_back(e.what());
                    conn.reset();
                }
                if (churn)
                    conn.reset();
            }
        };
        std::vector<std::jthread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(client, c);
    };
    const double t0 = now();
    phase(plan.firstTime);
    phase(plan.repeats);
    for (size_t s = 0; s < plan.sweeps.size(); ++s) {
        BatchRecord rec;
        rec.sweep = static_cast<int>(s);
        try {
            if (!conns[0])
                conns[0].emplace(ServiceClient::overTcp(daemon.port()));
            Request batch;
            batch.verb = Verb::Batch;
            batch.technique = Technique::Geyser;
            batch.qasm = plan.sweeps[s];
            const double b0 = now();
            rec.reply = conns[0]->roundTrip(batch);
            rec.latencyMs = (now() - b0) * 1000.0;
            rec.ok = rec.reply.ok;
        } catch (const std::exception &e) {
            round.errors.push_back(e.what());
            continue;
        }
        round.batches.push_back(std::move(rec));
    }
    round.wallS = now() - t0;
    round.proc = procStats(daemon.pid());
    conns.clear();
    if (!daemon.stop())
        round.daemonErrors.push_back("geyserd exited uncleanly");
    return round;
}

long
field(const Response &r, const char *key)
{
    const std::string *v = r.find(key);
    return v == nullptr ? -1 : std::stol(*v);
}

double
fieldMs(const Response &r, const char *key)
{
    const std::string *v = r.find(key);
    return v == nullptr ? 0.0 : std::stod(*v);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Per-layer figures of a traced round, from the daemon's own logs. */
Json
tracedLayers(const Plan &plan, const Round &round)
{
    std::map<std::string, long> counterValues;
    std::vector<obs::TraceEvent> events;
    double waitUs = 0.0;
    for (const std::string &line : readLines(round.metricsPath)) {
        const Json j = Json::parse(line);
        const std::string type = j.find("type")->str();
        const std::string name = j.find("name")->str();
        if (type == "counter") {
            counterValues[name] =
                static_cast<long>(j.find("value")->number());
        } else if (type == "histogram" && name == "pool.task_wait_us") {
            waitUs = j.find("sum")->number();
        } else if (type == "span") {
            obs::TraceEvent e;
            e.name = name;
            e.tid = static_cast<int>(j.find("tid")->number());
            e.durMicros = static_cast<uint64_t>(j.find("dur_us")->number());
            if (const Json *args = j.find("args"))
                for (const auto &[k, v] : args->members())
                    if (v.type() == Json::Type::Number)
                        e.numArgs.emplace_back(k, v.number());
            events.push_back(std::move(e));
        }
    }
    std::map<uint64_t, double> compileMs;
    for (const std::string &line : readLines(round.accessLogPath)) {
        const Json j = Json::parse(line);
        compileMs[static_cast<uint64_t>(j.find("id")->number())] =
            j.find("compile_us")->number() / 1000.0;
    }

    Json layers = Json::object();
    addLayerCounters(layers, {}, counterValues, events);
    // The daemon runs two pools (compile workers and the global compose
    // pool); capacity counts every thread that ran a pool task.
    std::set<int> poolThreads;
    for (const auto &e : events)
        if (e.name == "pool.task")
            poolThreads.insert(e.tid);
    addPoolLayer(layers, spanMs(events, "pool.task"), waitUs / 1000.0,
                 round.wallS * 1000.0 * static_cast<double>(poolThreads.size()));
    layers.set("obs.events_dropped",
               static_cast<double>(counterValues["obs.events_dropped"]));
    for (const char *name : {"fleet.groups", "fleet.rebound", "fleet.fallback"})
        layers.set(name, static_cast<double>(counterValues[name]));
    layers.set("fleet.plan_ms", spanMs(events, "fleet.plan"));
    layers.set("fleet.rebind_ms", spanMs(events, "fleet.rebind"));

    std::vector<double> queue, compile, wire;
    double transpileMs = 0, blockingMs = 0, composeMs = 0;
    for (const SubmitRecord &s : round.submits) {
        if (!s.ok)
            continue;
        const double q = fieldMs(s.reply, "queue_ms");
        const double c = compileMs.count(s.id) ? compileMs[s.id] : 0.0;
        queue.push_back(q);
        compile.push_back(c);
        wire.push_back(s.latencyMs - q - c);
        if (field(s.reply, "cache_hit") != 0)
            continue;
        transpileMs += fieldMs(s.reply, "transpile_ms");
        blockingMs += fieldMs(s.reply, "blocking_ms");
        composeMs += fieldMs(s.reply, "compose_ms");
        const Program &p = plan.programs[static_cast<size_t>(s.program)];
        if (p.technique == Technique::Geyser)
            layers.set("compose.row_ms." + p.row,
                       fieldMs(s.reply, "compose_ms"));
    }
    layers.set("pipeline.transpile_ms", transpileMs);
    layers.set("pipeline.blocking_ms", blockingMs);
    layers.set("pipeline.compose_ms", composeMs);
    layers.set("service.queue_ms_p50", percentile(queue, 0.5));
    layers.set("service.compile_ms_p50", percentile(compile, 0.5));
    layers.set("service.wire_ms_p50", percentile(wire, 0.5));
    layers.set("service.connections", static_cast<double>(round.proc.sockets));
    layers.set("service.threads", static_cast<double>(round.proc.threads));
    layers.set("service.mappings", static_cast<double>(round.proc.mappings));
    layers.set("service.vm_mb", round.proc.vmMb);
    return layers;
}

/**
 * The distinct programs of a round, each as the in-process compile() of
 * its logical QASM with the physical circuit replaced by the daemon's
 * payload. Checks that every payload parses and equals, with its pulse
 * counts, that compile.
 */
std::vector<CompileResult>
payloadResults(const Plan &plan, const Round &round, Json &failures)
{
    std::map<int, const SubmitRecord *> firstReply;
    for (const SubmitRecord &s : round.submits)
        if (s.ok)
            firstReply.emplace(s.program, &s);
    std::vector<CompileResult> refs;
    for (const auto &[index, rec] : firstReply) {
        const Program &p = plan.programs[static_cast<size_t>(index)];
        const std::string label = p.row + " " + techniqueName(p.technique);
        CompileResult ref = compile(p.technique, circuitFromQasm(p.qasm));
        Circuit payload;
        try {
            payload = circuitFromQasm(rec->reply.payload);
        } catch (const std::exception &e) {
            failures.push(label + ": payload does not parse: " + e.what());
            continue;
        }
        if (field(rec->reply, "total_pulses") != ref.stats.totalPulses ||
            field(rec->reply, "depth_pulses") != ref.stats.depthPulses)
            failures.push(label + ": pulses differ from in-process compile");
        if (rec->reply.payload != circuitToQasm(ref.physical))
            failures.push(label + ": payload differs from in-process compile");
        ref.physical = std::move(payload);
        refs.push_back(std::move(ref));
    }
    return refs;
}

/**
 * One pass of tvd_s: what a user evaluating the returned programs pays,
 * the noisy TVD of every distinct payload under the paper's 0.1% Pauli
 * model (200 trajectories), on one thread, since short pool sections
 * follow the shared host's load several times more than serial work.
 * Returns the seconds; appends the TVDs to `tvds`.
 */
double
tvdPass(const std::vector<CompileResult> &refs, uint64_t seed,
        std::vector<double> &tvds)
{
    TrajectoryConfig cfg;
    cfg.seed = seed;
    cfg.parallel = false;
    const double t0 = now();
    for (const CompileResult &r : refs)
        tvds.push_back(evaluateTvd(r, NoiseModel::paperDefault(), cfg));
    return now() - t0;
}

/**
 * The output checks of service-mixed, after the timed rounds: every job
 * ended done, every repeat returned the first reply's bytes, every batch
 * is whole and verified, every daemon exited cleanly; the ideal TVD of
 * every distinct payload against its logical program is at most 1e-2
 * (Sec 6; the exact techniques sit at rounding level); every TVD pass
 * reproduced the first bit for bit and lies in [0, 1].
 */
void
checkRounds(const Plan &plan, const std::vector<Round> &rounds,
            const std::vector<CompileResult> &refs,
            const std::vector<std::vector<double>> &passTvds, Json &failures)
{
    std::map<int, const SubmitRecord *> firstReply;
    for (const Round &round : rounds) {
        for (const std::string &e : round.errors)
            failures.push("client error: " + e);
        for (const std::string &e : round.daemonErrors)
            failures.push(e);
        for (const SubmitRecord &s : round.submits) {
            const Program &p = plan.programs[static_cast<size_t>(s.program)];
            const std::string label = p.row + " " + techniqueName(p.technique);
            if (!s.ok) {
                failures.push(label + ": job did not end done");
                continue;
            }
            auto [it, fresh] = firstReply.emplace(s.program, &s);
            if (!fresh && it->second->reply.payload != s.reply.payload)
                failures.push(label + ": a repeat returned different bytes");
        }
        for (const BatchRecord &b : round.batches) {
            if (!b.ok || field(b.reply, "verify_failures") != 0 ||
                field(b.reply, "members") != kSweepMembers)
                failures.push("batch " + std::to_string(b.sweep) +
                              ": failed or reported verify failures");
        }
    }
    if (refs.size() != plan.programs.size())
        failures.push("the first round did not return every program");
    for (const CompileResult &r : refs) {
        const double tvd = idealTvd(r);
        if (!(tvd <= 1e-2))
            failures.push(std::to_string(r.logical.numQubits()) + "-qubit " +
                          techniqueName(r.technique) +
                          " payload: ideal TVD " + std::to_string(tvd) +
                          " > 1e-2");
    }
    for (size_t pass = 0; pass < passTvds.size(); ++pass)
        if (passTvds[pass] != passTvds.front())
            failures.push("noisy TVD pass " + std::to_string(pass) +
                          " differs from the first");
    for (const double tvd : passTvds.front())
        if (!(tvd >= 0.0 && tvd <= 1.0))
            failures.push("a payload's noisy TVD lies outside [0, 1]");
}

}  // namespace

int
runService(const Args &args)
{
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const double seconds = static_cast<double>(args.num("seconds", 10));
    const bool trace = args.num("trace", 0) != 0;
    const std::string geyserd = args.str("geyserd", "");
    const std::string workdir = args.str("workdir", "");
    if (geyserd.empty() || workdir.empty())
        throw std::invalid_argument("service needs --geyserd and --workdir");

    const Plan plan = makePlan(seed);
    Json failures = Json::array();
    std::vector<Round> rounds;
    std::vector<CompileResult> refs;
    std::vector<double> tvdS;
    std::vector<std::vector<double>> passTvds;
    const double start = now();
    // Whole rounds until the time is up, and at least kMinRounds, so the
    // pooled p90 has ten submits beyond it. After each round, with the
    // daemon stopped, one tvd_s pass over the first round's payloads.
    do {
        rounds.push_back(runRound(
            plan, geyserd, workdir + "/round" + std::to_string(rounds.size()),
            false));
        if (rounds.size() == 1)
            refs = payloadResults(plan, rounds.front(), failures);
        passTvds.emplace_back();
        tvdS.push_back(tvdPass(refs, seed, passTvds.back()));
    } while (now() - start < seconds ||
             rounds.size() < static_cast<size_t>(kMinRounds));

    Json out = Json::object();
    if (trace) {
        Round traced = runRound(plan, geyserd, workdir + "/traced", true);
        std::vector<double> walls;
        for (const Round &r : rounds)
            walls.push_back(r.wallS);
        Json layers = tracedLayers(plan, traced);
        layers.set("trace.overhead_pct",
                   (traced.wallS / percentile(walls, 0.5) - 1.0) * 100.0);
        out.set("layers", std::move(layers));
    }

    checkRounds(plan, rounds, refs, passTvds, failures);

    Json roundsJson = Json::array();
    long attempted = 0, failed = 0;
    long pulses = 0, depthPulses = 0;
    for (size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        Json rj = Json::object();
        Json setups = Json::array();
        for (const double v : r.setupS)
            setups.push(v);
        rj.set("setup_s", std::move(setups));
        rj.set("wall_s", r.wallS);
        rj.set("peak_rss_mb", r.proc.peakRssMb);
        double compileS = 0.0;
        Json lat = Json::array();
        for (const SubmitRecord &s : r.submits) {
            ++attempted;
            if (!s.ok) {
                ++failed;
                continue;
            }
            lat.push(s.latencyMs);
            if (field(s.reply, "cache_hit") == 0)
                compileS += fieldMs(s.reply, "total_ms") / 1000.0;
        }
        Json batches = Json::array();
        for (const BatchRecord &b : r.batches) {
            ++attempted;
            if (!b.ok) {
                ++failed;
                continue;
            }
            Json bj = Json::object();
            bj.set("ms", b.latencyMs);
            bj.set("members", field(b.reply, "members"));
            batches.push(std::move(bj));
        }
        failed += static_cast<long>(r.errors.size());
        attempted += static_cast<long>(r.errors.size());
        rj.set("compile_s", compileS);
        rj.set("latency_ms", std::move(lat));
        rj.set("batches", std::move(batches));
        roundsJson.push(std::move(rj));
    }
    // Distinct Geyser programs' pulses, from the first round's replies.
    std::map<int, bool> seen;
    for (const SubmitRecord &s : rounds.front().submits) {
        const Program &p = plan.programs[static_cast<size_t>(s.program)];
        if (p.technique != Technique::Geyser || !s.ok ||
            !seen.emplace(s.program, true).second)
            continue;
        pulses += field(s.reply, "total_pulses");
        depthPulses += field(s.reply, "depth_pulses");
    }
    std::filesystem::remove_all(workdir);

    out.set("rounds", std::move(roundsJson));
    out.set("geyser_pulses", pulses);
    out.set("geyser_depth_pulses", depthPulses);
    out.set("tvd_s", percentile(tvdS, 0.5));
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("check_failures", std::move(failures));
    emit(out);
    return 0;
}

}  // namespace perfbench
