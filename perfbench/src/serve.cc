/**
 * @file
 * serve_mixed: SchedService (2 pool workers) behind an in-process
 * TcpReactor, restarted from a binary warm-state snapshot the run
 * produced beforehand. One run:
 *
 *   1. an open-loop generator on 4 connections at the nominal rate
 *      (client-side latencies, timed from when each request was due;
 *      the generator records its own lateness, and when it lagged
 *      beyond LAG_LIMIT_MS the TCP figures are reported invalid);
 *   2. in-process replays of the same stream on fresh restarts, each
 *      request timed through rawProbe, parseRequest and processBatch
 *      (the service times the benchmark's bounded metrics use);
 *   3. a ladder of rates over TCP, each on a fresh restart, for the
 *      sustained rate; each rate re-sends a prefix of the nominal
 *      stream.
 *
 * The mix, drawn from the seed:
 *   ~80%   verbatim repeats of warm keys (the raw lane answers);
 *   ~12%   textual variants of warm keys (parsed, then a canonical hit);
 *   ~7.5%  fresh generated scenarios under rmca (cold misses);
 *   ~0.5%  fresh `verify` requests on small generated loops under a
 *          node budget, so their exact cost is bounded.
 *
 * Threads: this one (the load generator), the reactor, and the
 * service's two pool workers; a server is shut down before the next
 * starts. Every reply is byte-compared against the offline single-shot
 * pipeline (parse, fresh DDG and locality, scheduleWithBackend,
 * renderReply), computed before the timed window. The draws are used
 * as drawn: a warm key or fresh scenario the heuristic cannot schedule
 * is sent, and each error reply it gets is a failed operation.
 *
 * `attempted` and `failed` count the nominal stream once, as its first
 * serving (the TCP phase; the first replay in the traced run) answered
 * it, so both are a function of the seed. The replays and the ladder
 * re-send the same requests for their timings; their replies are still
 * byte-compared, and a request the ladder leaves unanswered misses the
 * ladder's limits.
 *
 * The traced run replays the nominal stream with one span per call,
 * and probes the reactor's idle round trip and the wait a hit sees
 * behind it over TCP.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <random>
#include <thread>

#include "bench.hh"
#include "cme/provider.hh"
#include "common/strutil.hh"
#include "gen/generator.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "svc/service.hh"
#include "text/format.hh"

using namespace mvp;

namespace perfbench
{
namespace
{

constexpr int SERVICE_JOBS = 2;
constexpr int CONNS = 4;
constexpr int WARM_LOOPS = 150;   ///< x 2 machines = warm keys
constexpr int SETUP_REPEATS = 15;
constexpr double NOMINAL_RPS = 2000.0;
/** Shares of --seconds: the open loop at the nominal rate, then the
 * in-process replays; the rest is split evenly over the ladder, each
 * rate sending at most the nominal stream. */
constexpr double NOMINAL_SHARE = 0.4;
constexpr double REPLAY_SHARE = 0.3;
constexpr double LADDER_RPS[] = {4000.0,  8000.0,  12000.0,
                                 16000.0, 20000.0, 24000.0};
/** Hits per window of a windowed p99 (10 samples beyond it). */
constexpr std::size_t HIT_WINDOW = 1000;
/** Misses per window of a ladder rate's windowed p99. */
constexpr std::size_t MISS_WINDOW = 400;
/** Latency limits a ladder rate must meet (p99). Far above the
 * low-load p99s (a few ms), so only saturation crosses them and the
 * sustained rate does not follow host noise. */
constexpr double HIT_P99_LIMIT_MS = 50.0;
constexpr double MISS_P99_LIMIT_MS = 100.0;
/** A ladder rate whose completions fall this far behind what was sent
 * within its window has a growing backlog. */
constexpr double BACKLOG_SHARE = 0.95;
/** The generator's own p99 lateness bound. */
constexpr double LAG_LIMIT_MS = 20.0;
/** How long replies may still arrive after the last send. */
constexpr double DRAIN_LIMIT_MS = 10000.0;
constexpr std::int64_t VERIFY_NODE_BUDGET = 20'000;
/** The generator spins (polls without sleeping) this close to a due
 * time. */
constexpr std::int64_t SPIN_NS = 100'000;

enum class Kind { Raw, Variant, Fresh, Verify };

bool
isHit(Kind k)
{
    return k == Kind::Raw || k == Kind::Variant;
}

/** One request of the stream: a warm key (verbatim or as a variant)
 * or a fresh scenario. */
struct Req
{
    Kind kind = Kind::Raw;
    std::uint32_t index = 0;   ///< into Inputs::warm or Inputs::fresh
};

/** Warm and fresh scenarios: generated loops with iteration spaces
 * the size of the builtin suites' (the generator's defaults are tiny),
 * so a cold request pays a realistic CME and scheduling cost. */
gen::GenParams
scenarioParams()
{
    gen::GenParams p;
    p.minInnerTrip = 64;
    p.maxInnerTrip = 256;
    p.maxOuterTrip = 8;
    return p;
}

std::string
rmcaPayload(const ir::LoopNest &nest, const MachineConfig &machine)
{
    return "config backend rmca\nconfig threshold 0.25\n\n" +
           text::printScenario({nest, machine});
}

/** The offline pipeline: parse the payload and schedule it directly —
 * no service, no cache, fresh DDG and locality. */
std::string
offlineReply(const std::string &payload)
{
    svc::Request req = svc::parseRequest(payload, "<offline>");
    if (!req.error.empty())
        return svc::renderErrorReply(req.error);
    const auto graph =
        ddg::Ddg::build(req.scenario.loop, req.scenario.machine);
    const auto locality = cme::LocalityRegistry::instance().bind(
        req.options.locality, req.scenario.loop);
    sched::SchedulerOptions opt;
    opt.missThreshold = req.options.threshold;
    opt.locality = locality.get();
    opt.localityProvider = req.options.locality;
    opt.searchBudget = req.options.nodeBudget;
    opt.timeBudgetMs = req.options.timeBudgetMs;
    opt.exactBackend = req.options.exactBackend;
    opt.searchJobs = 1;
    const auto result = sched::scheduleWithBackend(
        req.options.backend, graph, req.scenario.machine, opt);
    if (!result.ok)
        return svc::renderErrorReply(result.error);
    return svc::renderReply(req, result);
}

bool
isErrorReply(std::string_view reply)
{
    return reply.compare(0, 12, "status error") == 0;
}

/** Everything the run sends, with the expected replies. */
struct Inputs
{
    std::vector<std::string> warm;
    std::vector<std::string> warmReply;
    std::vector<std::string> fresh;
    std::vector<std::string> freshReply;
    std::vector<Req> stream;
    std::size_t nominal = 0;                ///< stream.size()
    /** Nominal requests whose reply is an error (a loop the heuristic
     * cannot schedule); each is a failed operation when served. */
    std::int64_t errorReplies = 0;
    /** Warm keys and nominal fresh scenarios with an error reply. */
    std::int64_t unschedulable = 0;
    std::int64_t iiSum = 0;                 ///< nominal fresh rmca replies
    std::int64_t miiSum = 0;

    /** The bytes request @p i sends. A variant is its warm key behind
     * a comment naming the request, so every variant is new bytes. */
    std::string payload(std::size_t i) const
    {
        const Req &r = stream[i];
        switch (r.kind) {
        case Kind::Raw:
            return warm[r.index];
        case Kind::Variant:
            return "# variant " + std::to_string(i) + "\n" + warm[r.index];
        default:
            return fresh[r.index];
        }
    }
    const std::string &expected(std::size_t i) const
    {
        const Req &r = stream[i];
        return isHit(r.kind) ? warmReply[r.index] : freshReply[r.index];
    }
};

std::int64_t
replyField(const std::string &reply, const char *field)
{
    const std::string key = std::string("\n") + field + " ";
    const std::size_t at = reply.find(key);
    return at == std::string::npos
               ? 0
               : std::atoll(reply.c_str() + at + key.size());
}

const MachineConfig &
scenarioMachine(std::uint64_t k)
{
    static const MachineConfig machines[] = {makeTwoCluster(),
                                             makeFourCluster()};
    return machines[k % 2];
}

/** Draw the nominal stream. Every draw is used as drawn: a scenario
 * the heuristic cannot schedule is sent, and its error reply counts as
 * a failed operation. */
void
drawStream(Inputs &in, std::uint64_t seed)
{
    std::mt19937_64 rng(gen::deriveSeed(seed, 2));
    std::uint64_t next_fresh = 0;
    const gen::GenParams params = scenarioParams();
    gen::GenParams small;   // bounded exact cost for verify requests
    small.maxDepth = 1;
    small.maxLoads = 3;
    small.maxCompute = 4;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, in.warm.size() - 1);
    in.stream.reserve(in.nominal);
    for (std::size_t i = 0; i < in.nominal; ++i) {
        const double u = unit(rng);
        Req r;
        if (u < 0.92) {
            r.kind = u < 0.80 ? Kind::Raw : Kind::Variant;
            r.index = static_cast<std::uint32_t>(pick(rng));
        } else {
            r.kind = u < 0.995 ? Kind::Fresh : Kind::Verify;
            const std::uint64_t s = gen::deriveSeed(seed, 1000 + next_fresh);
            const MachineConfig &m = scenarioMachine(next_fresh++);
            std::string payload;
            if (r.kind == Kind::Fresh) {
                payload = rmcaPayload(
                    gen::generateLoop(s, params, "f" + std::to_string(s)), m);
            } else {
                payload = "config backend verify\nconfig threshold 0.25\n"
                          "config node-budget " +
                          std::to_string(VERIFY_NODE_BUDGET) + "\n\n" +
                          text::printScenario(
                              {gen::generateLoop(s, small,
                                                 "v" + std::to_string(s)),
                               m});
            }
            std::string reply = offlineReply(payload);
            if (isErrorReply(reply)) {
                ++in.unschedulable;
            } else if (r.kind == Kind::Fresh) {
                in.iiSum += replyField(reply, "ii");
                in.miiSum += replyField(reply, "mii");
            }
            r.index = static_cast<std::uint32_t>(in.fresh.size());
            in.fresh.push_back(std::move(payload));
            in.freshReply.push_back(std::move(reply));
        }
        in.stream.push_back(r);
        if (isErrorReply(in.expected(i)))
            ++in.errorReplies;
    }
}

/** The warm keys and the nominal stream. */
Inputs
buildInputs(std::uint64_t seed, double seconds)
{
    Inputs in;
    const auto warm_loops = gen::generateSuite(gen::deriveSeed(seed, 1),
                                               WARM_LOOPS, scenarioParams());
    for (const auto &nest : warm_loops)
        for (std::uint64_t k = 0; k < 2; ++k) {
            in.warm.push_back(rmcaPayload(nest, scenarioMachine(k)));
            in.warmReply.push_back(offlineReply(in.warm.back()));
            in.unschedulable += isErrorReply(in.warmReply.back()) ? 1 : 0;
        }
    in.nominal = static_cast<std::size_t>(NOMINAL_RPS * seconds *
                                          NOMINAL_SHARE);
    drawStream(in, seed);
    return in;
}

/** The snapshot a previous deployment left behind: a service that
 * served every warm key once. */
std::string
produceSnapshot(const Inputs &in, Result &res)
{
    svc::SchedService producer(SERVICE_JOBS);
    std::vector<svc::Request> batch;
    for (const std::string &p : in.warm)
        batch.push_back(svc::parseRequest(p));
    const auto replies = producer.processBatch(std::move(batch));
    for (std::size_t i = 0; i < replies.size(); ++i)
        if (replies[i].bytes() != in.warmReply[i])
            res.wrong("snapshot producer: warm key " + std::to_string(i) +
                     " differs from the offline pipeline");
    return producer.encodeState();
}

// ------------------------------------------------------- TCP client

int
connectTo(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

struct Conn
{
    int fd = -1;
    std::string out;
    std::size_t outOff = 0;
    std::string in;
    bool dead = false;
};

/** Per-request client-side record. */
struct Sample
{
    Clock::time_point due{};
    Clock::time_point sent{};
    Clock::time_point done{};
    bool answered = false;
};

/** Open-loop driver over a fixed set of connections. When @p count,
 * each error reply and each request left without a reply is a failed
 * operation. */
class Client
{
  public:
    Client(int port, const Inputs &in, Result &res, bool count)
        : in_(in), res_(res), count_(count), samples_(in.stream.size()),
          replyHash_(in.stream.size(), 0)
    {
        for (int c = 0; c < CONNS; ++c) {
            Conn conn;
            conn.fd = connectTo(port);
            conn.dead = conn.fd < 0;
            conns_.push_back(std::move(conn));
        }
    }
    ~Client()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Send stream[begin, end) at @p rps, Poisson arrivals from @p rng,
     * round-robin over the connections; return once every request is
     * answered or the drain limit passed. Replies are checked as they
     * arrive.
     */
    void run(std::size_t begin, std::size_t end, double rps,
             std::mt19937_64 &rng)
    {
        std::exponential_distribution<double> gap(rps);
        auto due = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
            due += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(gap(rng)));
            samples_[i].due = due;
        }
        std::size_t next = begin;
        std::size_t pending = end - begin;
        Clock::time_point drain_deadline{};
        while (pending > 0) {
            const auto now = Clock::now();
            while (next < end && samples_[next].due <= now) {
                send(next);
                ++next;
            }
            if (next == end && drain_deadline == Clock::time_point{})
                drain_deadline =
                    now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  DRAIN_LIMIT_MS));
            if (next == end && now >= drain_deadline)
                break;
            // Wait for input (or room to write) until the next send.
            std::vector<pollfd> fds;
            for (const Conn &c : conns_)   // poll skips negative fds
                fds.push_back({c.dead ? -1 : c.fd,
                               static_cast<short>(
                                   POLLIN | (c.outOff < c.out.size()
                                                 ? POLLOUT
                                                 : 0)),
                               0});
            timespec ts{0, 0};
            if (next < end) {
                const auto wait = samples_[next].due - Clock::now();
                // Sleep until shortly before the next due time, then
                // spin: a sleeping wake-up is late by the timer slack.
                const auto ns =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wait)
                        .count() -
                    SPIN_NS;
                if (ns > 0) {
                    ts.tv_sec = ns / 1'000'000'000;
                    ts.tv_nsec = ns % 1'000'000'000;
                }
            } else {
                ts.tv_nsec = 1'000'000;
            }
            ::ppoll(fds.data(), fds.size(), &ts, nullptr);
            for (std::size_t c = 0; c < conns_.size(); ++c) {
                if (fds[c].revents & POLLOUT)
                    flush(conns_[c]);
                if (fds[c].revents & (POLLIN | POLLHUP | POLLERR))
                    pending -= receive(conns_[c]);
            }
        }
        for (std::size_t i = begin; i < end; ++i)
            if (!samples_[i].answered && count_)
                res_.fail("request q" + std::to_string(i) +
                          " got no reply (timeout or refused)");
    }

    const std::vector<Sample> &samples() const { return samples_; }
    /** Reply hashes in stream order (0 when unanswered). */
    const std::vector<std::uint64_t> &replyHashes() const
    {
        return replyHash_;
    }

    /** Closed-loop round trip of one request on an idle connection. */
    double roundTripUs(std::size_t i)
    {
        const auto t0 = Clock::now();
        samples_[i].due = t0;
        send(i);
        while (!samples_[i].answered && !conns_[i % CONNS].dead) {
            pollfd fd{conns_[i % CONNS].fd, POLLIN, 0};
            ::poll(&fd, 1, 1000);
            receive(conns_[i % CONNS]);
        }
        return std::chrono::duration<double, std::micro>(Clock::now() - t0)
            .count();
    }

  private:
    void send(std::size_t i)
    {
        Conn &c = conns_[i % CONNS];
        samples_[i].sent = Clock::now();
        if (c.dead)
            return;
        const std::string p = in_.payload(i);
        c.out += "REQ q" + std::to_string(i) + " " +
                 std::to_string(p.size()) + "\n";
        c.out += p;
        c.out += "\nFLUSH\n";
        flush(c);
    }

    void flush(Conn &c)
    {
        while (c.outOff < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.outOff,
                                     c.out.size() - c.outOff, MSG_NOSIGNAL);
            if (n > 0) {
                c.outOff += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            c.dead = true;
            return;
        }
        c.out.clear();
        c.outOff = 0;
    }

    /** Read what is there; returns the number of requests answered. */
    std::size_t receive(Conn &c)
    {
        char buf[65536];
        for (;;) {
            const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
            if (n > 0) {
                c.in.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                c.dead = true;
            break;
        }
        const auto now = Clock::now();
        std::size_t answered = 0;
        std::size_t pos = 0;
        for (;;) {
            const std::size_t eol = c.in.find('\n', pos);
            if (eol == std::string::npos)
                break;
            const char *head = c.in.c_str() + pos;
            if (std::strncmp(head, "REP q", 5) != 0) {
                res_.wrong("unexpected frame: " +
                          c.in.substr(pos, std::min<std::size_t>(
                                               eol - pos, 60)));
                c.dead = true;
                break;
            }
            char *endp = nullptr;
            const std::size_t id = std::strtoull(head + 5, &endp, 10);
            const std::size_t nbytes = std::strtoull(endp, nullptr, 10);
            if (eol + 1 + nbytes + 1 > c.in.size())
                break;   // payload not complete yet
            const std::string_view payload(c.in.data() + eol + 1, nbytes);
            pos = eol + 1 + nbytes + 1;
            if (id >= samples_.size() || samples_[id].answered) {
                res_.wrong("reply for unknown id q" + std::to_string(id));
                continue;
            }
            samples_[id].done = now;
            samples_[id].answered = true;
            ++answered;
            if (payload != in_.expected(id))
                res_.wrong("reply q" + std::to_string(id) +
                           " differs from the offline pipeline");
            else if (isErrorReply(payload) && count_)
                res_.fail("reply q" + std::to_string(id) +
                          " is an error reply");
            replyHash_[id] = fnv1a(std::string(payload));
        }
        c.in.erase(0, pos);
        return answered;
    }

    const Inputs &in_;
    Result &res_;
    const bool count_;
    std::vector<Conn> conns_;
    std::vector<Sample> samples_;
    std::vector<std::uint64_t> replyHash_;
};

/** A service restored from the snapshot, behind a running reactor. */
struct Server
{
    std::unique_ptr<svc::SchedService> service;
    std::unique_ptr<svc::TcpReactor> reactor;
    std::thread loop;

    ~Server() { shutdown(); }

    /** Stop the reactor and the service, joining all their threads
     * (the run stays within its thread budget). */
    void shutdown()
    {
        if (reactor)
            reactor->stop();
        if (loop.joinable())
            loop.join();
        reactor.reset();
        service.reset();
    }
};

/** Start a server from @p snapshot, behind a reactor when @p listen;
 * returns the set-up time in ms and the decode time in @p decode_ms. */
double
startServer(Server &srv, const std::string &snapshot, double &decode_ms,
            Result &res, bool listen = true)
{
    const auto t0 = Clock::now();
    srv.service = std::make_unique<svc::SchedService>(SERVICE_JOBS);
    const auto t1 = Clock::now();
    srv.service->decodeState(snapshot, "<snapshot>");
    decode_ms = msSince(t1);
    if (!listen)
        return msSince(t0);
    srv.reactor = std::make_unique<svc::TcpReactor>(*srv.service, 0);
    if (!srv.reactor->ok()) {
        res.fail("reactor: " + srv.reactor->error());
        return msSince(t0);
    }
    svc::TcpReactor *r = srv.reactor.get();
    srv.loop = std::thread([r] { r->run(); });
    return msSince(t0);
}

/** Fresh-from-snapshot servers; the last one stays up. */
void
setUp(Server &srv, const std::string &snapshot, std::vector<double> &setup_ms,
      std::vector<double> &decode_ms, Result &res)
{
    for (int k = 0; k < SETUP_REPEATS; ++k) {
        Server trial;
        double dec = 0.0;
        Server &target = k + 1 == SETUP_REPEATS ? srv : trial;
        setup_ms.push_back(startServer(target, snapshot, dec, res));
        decode_ms.push_back(dec);
    }
}

/** Replay every warm key once (verbatim), the way the first clients
 * after a restart do: it publishes them into the raw lane. */
void
warmRawLane(const Server &srv, const Inputs &in, Result &res)
{
    std::vector<svc::Request> batch;
    for (const std::string &p : in.warm)
        batch.push_back(svc::parseRequest(p));
    const auto replies = srv.service->processBatch(std::move(batch));
    for (std::size_t i = 0; i < replies.size(); ++i)
        if (!replies[i].cacheHit || replies[i].bytes() != in.warmReply[i])
            res.wrong("warm key " + std::to_string(i) +
                      " did not replay from the snapshot");
}

struct PhaseStats
{
    std::vector<double> hitMs;
    std::vector<double> missMs;
    std::vector<double> lagMs;
    std::size_t sent = 0;
    std::size_t inWindow = 0;   ///< answered before the window closed
};

PhaseStats
phaseStats(const Inputs &in, const std::vector<Sample> &samples,
           std::size_t begin, std::size_t end)
{
    PhaseStats s;
    s.sent = end - begin;
    const Clock::time_point window_end = samples[end - 1].due;
    for (std::size_t i = begin; i < end; ++i) {
        const Sample &x = samples[i];
        s.lagMs.push_back(
            std::chrono::duration<double, std::milli>(x.sent - x.due)
                .count());
        // A request without a reply misses every limit.
        const double ms =
            x.answered ? std::chrono::duration<double, std::milli>(
                             x.done - x.due)
                             .count()
                       : 1e9;
        (isHit(in.stream[i].kind) ? s.hitMs : s.missMs).push_back(ms);
        if (x.answered && x.done <= window_end)
            ++s.inWindow;
    }
    return s;
}

/**
 * The median, over consecutive windows of @p per samples, of each
 * window's percentile @p p: a burst of host noise moves one window's
 * figure, not the result.
 */
double
windowedPct(const std::vector<double> &v, std::size_t per, double p)
{
    if (v.size() < 2 * per)
        return pct(v, p);
    std::vector<double> figures;
    for (std::size_t at = 0; at + per <= v.size(); at += per)
        figures.push_back(pct(std::vector<double>(v.begin() + at,
                                                  v.begin() + at + per),
                              p));
    return median(figures);
}

std::uint64_t
fingerprintOf(const std::vector<std::uint64_t> &reply_hashes, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i)
        h = foldHash(h, reply_hashes[i]);
    return h;
}

/** One in-process replay of the nominal stream. */
struct ReplayPass
{
    double wallMs = 0.0;
    std::vector<double> hitMs;    ///< per hit request, service time
    std::vector<double> missMs;   ///< per cold request
    std::uint64_t fingerprint = 0;
    svc::ServiceStats before;
    svc::ServiceStats after;
};

/**
 * Restore a fresh service from @p snapshot (no reactor), warm its raw
 * lane, and replay the nominal stream through it: rawProbe, then on a
 * raw miss parseRequest and processBatch — one span each when tracing
 * is on. Each request is timed from the first call to its reply, and
 * every reply is checked; when @p count, the pass's requests are
 * attempted operations and each error reply a failed one.
 */
ReplayPass
replayPass(const Inputs &in, const std::string &snapshot, bool traced,
           bool count, Result &res)
{
    Server srv;
    double decode = 0.0;
    startServer(srv, snapshot, decode, res, false);
    warmRawLane(srv, in, res);
    svc::SchedService &service = *srv.service;
    ReplayPass p;
    p.before = service.stats();
    std::vector<std::uint64_t> hashes(in.nominal);
    traceEnable(traced);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < in.nominal; ++i) {
        const Req &r = in.stream[i];
        const std::string payload = in.payload(i);
        const auto op = static_cast<std::int64_t>(i);
        const auto t0 = Clock::now();
        svc::ReplyBytes reply;
        {
            TraceScope span("svc.raw_probe", op);
            reply = service.rawProbe(payload);
        }
        if (!reply) {
            svc::Request req;
            {
                TraceScope span("svc.parse", op);
                req = svc::parseRequest(payload);
            }
            std::vector<svc::Request> batch;
            batch.push_back(std::move(req));
            std::vector<svc::SchedService::Reply> replies;
            {
                TraceScope span(r.kind == Kind::Fresh    ? "svc.batch_rmca"
                                : r.kind == Kind::Verify ? "svc.batch_verify"
                                                         : "svc.batch_hit",
                                op);
                replies = service.processBatch(std::move(batch));
            }
            reply = replies.front().payload;
        }
        (isHit(r.kind) ? p.hitMs : p.missMs).push_back(msSince(t0));
        hashes[i] = fnv1a(*reply);
        if (*reply != in.expected(i))
            res.wrong("replayed reply q" + std::to_string(i) +
                      " differs from the offline pipeline");
        else if (isErrorReply(*reply) && count)
            res.fail("replayed reply q" + std::to_string(i) +
                     " is an error reply");
    }
    p.wallMs = msSince(start);
    traceEnable(false);
    if (count)
        res.attempted += static_cast<std::int64_t>(in.nominal);
    p.after = service.stats();
    p.fingerprint = fingerprintOf(hashes, in.nominal);
    return p;
}

/** The sustained rate of the ladder (see runServeMixed). Each rate
 * sends the prefix of the nominal stream that lasts its share of
 * @p seconds, the whole stream at most. */
double
runLadder(const Inputs &in, const std::string &snapshot, double seconds,
          std::mt19937_64 &rng, Result &res)
{
    const double t_step = seconds * (1.0 - NOMINAL_SHARE - REPLAY_SHARE) /
                          std::size(LADDER_RPS);
    double prev_rps = 0.0;
    double prev_q = 0.0;
    for (std::size_t k = 0; k < std::size(LADDER_RPS); ++k) {
        const std::size_t end = std::min(
            in.nominal, static_cast<std::size_t>(LADDER_RPS[k] * t_step));
        Server step;
        double decode = 0.0;
        startServer(step, snapshot, decode, res);
        warmRawLane(step, in, res);
        Client load(step.reactor->port(), in, res, false);
        load.run(0, end, LADDER_RPS[k], rng);
        const PhaseStats st = phaseStats(in, load.samples(), 0, end);
        const double hit99 = windowedPct(st.hitMs, HIT_WINDOW, 99.0);
        const double miss99 = windowedPct(st.missMs, MISS_WINDOW, 99.0);
        const double late = 1.0 - static_cast<double>(st.inWindow) /
                                      static_cast<double>(st.sent);
        const double q = std::max({hit99 / HIT_P99_LIMIT_MS,
                                   miss99 / MISS_P99_LIMIT_MS,
                                   late / (1.0 - BACKLOG_SHARE)});
        std::printf("ladder rps=%g hit_p99_ms=%.3f miss_p99_ms=%.3f "
                    "late_share=%.4f lag_p99_ms=%.3f q=%.3f\n",
                    LADDER_RPS[k], hit99, miss99, late, pct(st.lagMs, 99.0),
                    q);
        if (q > 1.0)
            return prev_rps +
                   (LADDER_RPS[k] - prev_rps) * (1.0 - prev_q) / (q - prev_q);
        prev_rps = LADDER_RPS[k];
        prev_q = q;
    }
    return LADDER_RPS[std::size(LADDER_RPS) - 1];
}

/** Print the nominal TCP phase and return the generator's p99
 * lateness. */
double
printNominal(const PhaseStats &nominal)
{
    const double lag99 = pct(nominal.lagMs, 99.0);
    std::printf("nominal rps=%g hit_ms p50=%.3f p90=%.3f p99=%.3f "
                "miss_ms p50=%.3f p90=%.3f p99=%.3f lag_ms p99=%.3f "
                "max=%.3f\n",
                NOMINAL_RPS, pct(nominal.hitMs, 50), pct(nominal.hitMs, 90),
                pct(nominal.hitMs, 99), pct(nominal.missMs, 50),
                pct(nominal.missMs, 90), pct(nominal.missMs, 99), lag99,
                pct(nominal.lagMs, 100));
    return lag99;
}

} // namespace

Result
runServeMixed(const Args &args)
{
    Result res;
    Inputs in = buildInputs(args.seed, args.seconds);
    // The harness's own footprint (binary, payloads, expected replies),
    // printed beside the peak.
    const double rss_inputs_mb = rssPeakMb();
    const std::string snapshot = produceSnapshot(in, res);
    res.counters["svc.warm_keys"] = static_cast<std::int64_t>(in.warm.size());
    res.counters["svc.nominal_requests"] =
        static_cast<std::int64_t>(in.nominal);
    res.counters["svc.state_bytes"] =
        static_cast<std::int64_t>(snapshot.size());
    res.counters["svc.error_replies"] = in.errorReplies;

    Server srv;
    std::vector<double> setup_ms;
    std::vector<double> decode_ms;
    setUp(srv, snapshot, setup_ms, decode_ms, res);
    if (res.failed > 0 || res.incorrect > 0)
        return res;
    warmRawLane(srv, in, res);
    const svc::ServiceStats warm_stats = srv.service->stats();
    const auto start = Clock::now();
    std::mt19937_64 rng(gen::deriveSeed(args.seed, 3));
    Client client(srv.reactor->port(), in, res, !args.trace);

    if (!args.trace) {
        // 1. The open loop at the nominal rate over TCP.
        client.run(0, in.nominal, NOMINAL_RPS, rng);
        res.attempted += static_cast<std::int64_t>(in.nominal);
        const double rss_mb = rssPeakMb();
        const PhaseStats nominal = phaseStats(in, client.samples(), 0,
                                              in.nominal);
        res.fingerprint = fingerprintOf(client.replyHashes(), in.nominal);
        const svc::ServiceStats st = srv.service->stats();
        res.counters["svc.raw_hits"] = st.rawHits - warm_stats.rawHits;
        res.counters["svc.cache_hits"] = (st.cacheHits - st.rawHits) -
                                         (warm_stats.cacheHits -
                                          warm_stats.rawHits);
        srv.shutdown();
        const double lag99 = printNominal(nominal);
        // The TCP figures are only printed; a lagging generator makes
        // them invalid, not the replay figures the benchmark scores.
        const bool tcp_valid = lag99 <= LAG_LIMIT_MS;
        if (!tcp_valid)
            std::printf("tcp figures invalid: generator p99 lateness "
                        "%.3f ms > %.3f ms\n",
                        lag99, LAG_LIMIT_MS);

        // 2. In-process replays of the same stream: the service time
        // of each request, without the transport. Medians over passes.
        std::vector<double> rps, hit50, hit99, miss50, miss99;
        const auto until =
            start + std::chrono::duration<double>(
                        args.seconds * (NOMINAL_SHARE + REPLAY_SHARE));
        while (rps.size() < 3 || Clock::now() < until) {
            const ReplayPass p = replayPass(in, snapshot, false, false, res);
            if (p.fingerprint != res.fingerprint)
                res.wrong("replay fingerprint differs from the TCP "
                          "replies");
            rps.push_back(static_cast<double>(in.nominal) /
                          (p.wallMs / 1000.0));
            hit50.push_back(median(p.hitMs));
            hit99.push_back(pct(p.hitMs, 99.0));
            miss50.push_back(median(p.missMs));
            miss99.push_back(pct(p.missMs, 99.0));
        }

        // 3. The ladder, stopping at the first rate that fails; each
        // rate on a fresh restart from the snapshot, so the steps do
        // not inherit each other's cache growth. q is the worst of the
        // three criteria as a share of its limit (<= 1 passes); the
        // sustained rate interpolates q = 1 between the last passing
        // rate and the first failing one (from 0 when the first rate
        // fails already).
        const double sustained =
            runLadder(in, snapshot, args.seconds, rng, res);

        res.set("setup_s", median(setup_ms) / 1000.0, "s");
        res.set("rss_peak_mb", rss_mb, "MB");
        res.set("serve.rss_inputs_mb", rss_inputs_mb, "MB");
        res.set("serve.tcp_valid", tcp_valid ? 1.0 : 0.0, "bool");
        res.set("serve.hit_p50_us", median(nominal.hitMs) * 1000.0, "us");
        res.set("serve.hit_p99_us",
                windowedPct(nominal.hitMs, HIT_WINDOW, 99.0) * 1000.0,
                "us");
        res.set("serve.miss_p50_ms", median(nominal.missMs), "ms");
        res.set("serve.miss_p99_ms", pct(nominal.missMs, 99.0), "ms");
        res.set("serve.sustained_rps", sustained, "1/s");
        res.set("serve.lag_p99_ms", lag99, "ms");
        res.set("serve.hit_samples", static_cast<double>(nominal.hitMs.size()),
                "count");
        res.set("serve.miss_samples",
                static_cast<double>(nominal.missMs.size()), "count");
        res.set("serve.replay_rps", median(rps), "1/s");
        res.set("serve.hit_service_p50_us", median(hit50) * 1000.0, "us");
        res.set("serve.hit_service_p99_us", median(hit99) * 1000.0, "us");
        res.set("serve.miss_service_p50_ms", median(miss50), "ms");
        res.set("serve.miss_service_p99_ms", median(miss99), "ms");
        res.set("serve.ii_over_mii",
                in.miiSum > 0 ? static_cast<double>(in.iiSum) /
                                    static_cast<double>(in.miiSum)
                              : 0.0,
                "ratio");
        return res;
    }

    // Traced run. Reactor probes first, on the warm TCP server: the
    // idle round trip of a raw hit, then an open-loop phase whose hit
    // latency, minus the service's own hit path, is the wait a hit
    // spends behind the reactor.
    std::vector<double> rtt;
    std::size_t probe = 0;
    for (int k = 0; k < 200; ++k) {
        while (in.stream[probe].kind != Kind::Raw)
            ++probe;
        rtt.push_back(client.roundTripUs(probe++));
    }
    const std::size_t tcp_end = std::min(in.nominal, probe + in.nominal / 2);
    client.run(probe, tcp_end, NOMINAL_RPS, rng);
    const PhaseStats tcp = phaseStats(in, client.samples(), probe, tcp_end);
    srv.shutdown();
    if (pct(tcp.lagMs, 99.0) > LAG_LIMIT_MS)
        std::printf("tcp figures invalid: generator p99 lateness %.3f ms "
                    "> %.3f ms\n",
                    pct(tcp.lagMs, 99.0), LAG_LIMIT_MS);

    // In-process replays, alternating untraced (reference time) and
    // traced, while the run lasts.
    const auto deadline =
        start + std::chrono::duration<double>(args.seconds);
    std::vector<PassMetrics> per_pass;
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    for (int pass = 0; traced_ms.empty() || Clock::now() < deadline;
         ++pass) {
        const bool traced = pass % 2 == 1;
        traceDrain();
        const ReplayPass p = replayPass(in, snapshot, traced, pass == 0, res);
        if (pass == 0)
            res.fingerprint = p.fingerprint;
        else if (p.fingerprint != res.fingerprint)
            res.wrong("replay " + std::to_string(pass) +
                     " fingerprint differs from the first");
        if (!traced) {
            untraced_ms.push_back(p.wallMs);
            continue;
        }
        traced_ms.push_back(p.wallMs);
        const auto fold = foldSpans(traceDrain());
        const SpanStats probe_s = spanStats(fold, "svc.raw_probe");
        const SpanStats parse_s = spanStats(fold, "svc.parse");
        const SpanStats rmca_s = spanStats(fold, "svc.batch_rmca");
        const SpanStats verify_s = spanStats(fold, "svc.batch_verify");
        const SpanStats hit_s = spanStats(fold, "svc.batch_hit");
        const double requests =
            static_cast<double>(p.after.requests - p.before.requests);
        const double raw =
            static_cast<double>(p.after.rawHits - p.before.rawHits);
        PassMetrics m;
        m["svc.raw_probe_us"] = median(probe_s.durUs);
        m["svc.parse_us"] = median(parse_s.durUs);
        m["svc.raw_hit_share"] = raw / requests;
        m["svc.cache_hit_share"] =
            (static_cast<double>(p.after.cacheHits - p.before.cacheHits) -
             raw) /
            requests;
        m["svc.batch_miss_rmca_ms"] = median(rmca_s.durUs) / 1000.0;
        m["svc.batch_miss_verify_ms"] = median(verify_s.durUs) / 1000.0;
        m["svc.batch_hit_us"] = median(hit_s.durUs);
        m["svc.self_ms"] = probe_s.selfMs + parse_s.selfMs + rmca_s.selfMs +
                           verify_s.selfMs + hit_s.selfMs;
        m["svc.cache_entries"] = static_cast<double>(p.after.cacheEntries);
        m["svc.loop_contexts"] = static_cast<double>(p.after.loopContexts);
        m["unattributed_ms"] = unattributedMs(fold, p.wallMs, res);
        m["traced_total_ms"] = p.wallMs;
        per_pass.push_back(m);
    }
    setPassMedians(per_pass, res);
    res.set("trace_overhead_ms", median(traced_ms) - median(untraced_ms),
            "ms");
    res.set("svc.reactor_idle_rtt_us", median(rtt), "us");
    std::vector<double> wait;
    const double hit_path_ms = res.metrics["svc.raw_probe_us"].first / 1000.0;
    for (double ms : tcp.hitMs)
        wait.push_back(std::max(0.0, ms - hit_path_ms) * 1000.0);
    res.set("svc.reactor_hit_wait_p99_us", pct(wait, 99.0), "us");
    res.set("svc.tcp_hit_p50_us", median(tcp.hitMs) * 1000.0, "us");
    res.set("svc.tcp_hit_p99_us", windowedPct(tcp.hitMs, HIT_WINDOW, 99.0) *
                                      1000.0,
            "us");
    res.set("svc.tcp_miss_p50_ms", median(tcp.missMs), "ms");
    res.set("svc.tcp_miss_p99_ms", pct(tcp.missMs, 99.0), "ms");
    res.set("svc.state_decode_ms", median(decode_ms), "ms");
    res.set("svc.state_bytes", static_cast<double>(snapshot.size()), "bytes");
    res.set("rmca.no_schedule", static_cast<double>(in.unschedulable),
            "count");
    return res;
}

} // namespace perfbench
