// daemon-tenants: a sciductiond child process with two worker threads
// serves three tenants (service::client) in a closed loop: each tenant keeps
// one request outstanding, and each tenant round of 20 requests is a session
// on a connection of its own. Most queries are tiny or small, some
// medium, and one per tenant round repeats (renamed) a warm-up query of
// another tenant, so the shared cache answers it structurally across term
// managers.
#include <signal.h>
#include <unistd.h>

#include <mutex>
#include <regex>
#include <thread>
#include <tuple>

#include "bvgen.hpp"
#include "proc.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sub = sciduction::substrate;
namespace smt = sciduction::smt;
namespace svc = sciduction::service;

namespace {

constexpr int tenants = 3;
constexpr int warmup_per_tenant = 8;
constexpr int per_round = 20;  // requests per tenant round

/// A tenant's warm-up queries. They do not depend on the run's seed, so
/// set-up time does not.
std::vector<bvformula> warmup_set(int tenant) {
    prng r(derive_seed(0, 300 + static_cast<std::uint64_t>(tenant)));
    std::vector<bvformula> v;
    for (int i = 0; i < warmup_per_tenant; ++i) {
        const std::string prefix = "w" + std::to_string(tenant) + "x" + std::to_string(i) + "_";
        // Two identities per tenant, of families no other tenant uses.
        v.push_back(i < 2 ? gen_identity(r, prefix, 2 * tenant + i) : gen_planted(r, prefix, 8));
    }
    return v;
}

/// The request of position `idx` in a tenant's round: a pure function of
/// (seed, tenant, round, idx).
bvformula request_for(std::uint64_t seed, int tenant, std::uint64_t round, int idx,
                      const std::vector<std::vector<bvformula>>& warm) {
    const std::string prefix = "r" + std::to_string(round) + "x" + std::to_string(idx) + "_";
    if (idx == per_round - 1) {
        const auto& other = warm[static_cast<std::size_t>((tenant + 1) % tenants)];
        return other[round % other.size()].renamed_commuted(prefix);
    }
    prng r(derive_seed(seed, (static_cast<std::uint64_t>(tenant) << 48) ^ (round << 8) ^ static_cast<std::uint64_t>(idx)));
    // 17 tiny, 1 small, 1 medium. A request that finishes within one tick
    // of the daemon's 5 ms completion poll comes back one tick after it was
    // sent, so round trips sit on steps of one tick. The median is on the
    // first step. The medium request (planted, 12 bits: 5-100 ms of
    // service) and the tiny requests that wait behind it put about 12% of
    // the round trips past the first step, so the 90th percentile sits on
    // the second. Where it fell at the upper edge of a step, or inside the
    // medium requests' wide spread (three of them a round), the host's load
    // moved it by a quarter to a third between runs.
    if (idx < 17) return gen_chain(r, prefix, 8, 3);
    if (idx < 18) return gen_planted(r, prefix, 6);
    return gen_planted(r, prefix, 12);
}

std::string check_reply(const bvformula& f, const svc::result_message& m) {
    if (m.status != sub::solve_status::ok) return f.family + ": status " + to_string(m.status);
    if ((m.ans == sub::answer::sat) != f.expect_sat)
        return f.family + ": verdict contradicts the status known by construction";
    if (!f.expect_sat) return {};
    std::vector<std::uint64_t> values(f.var_names.size(), 0);
    for (const auto& b : m.model)
        for (std::size_t i = 0; i < f.var_names.size(); ++i)
            if (f.var_names[i] == b.name) values[i] = b.value;
    return f.check_model(values);
}

/// One request as the tenant saw it.
struct sample {
    int tenant = 0;
    std::uint64_t round = 0;  ///< the tenant round, a session of its own
    std::uint64_t request_id = 0;
    double rtt_ms = 0;
    double encode_us = 0, decode_us = 0;
    double frame_bytes = 0;
};

struct daemon_proc {
    pid_t pid = -1;
    std::string socket;
};

daemon_proc start_daemon(const run_options& opt, const std::string& trace_out) {
    daemon_proc d;
    d.socket = opt.tmp_dir + "/d" + std::to_string(getpid()) + ".sock";
    unlink(d.socket.c_str());
    // A bounded cache keeps the daemon's memory independent of how many
    // requests a run gets through.
    std::vector<std::string> argv = {opt.bin_dir + "/sciductiond", "--socket", d.socket, "--threads", "2",
                                     "--cache-capacity", "512"};
    if (!trace_out.empty()) {
        argv.insert(argv.end(), {"--trace-out", trace_out, "--trace-capacity", "400000"});
    }
    d.pid = spawn(argv);
    return d;
}

/// Connects a session of a tenant, retrying until the daemon listens.
std::unique_ptr<svc::client> connect(const smt::term_manager& tm, const daemon_proc& d, int tenant) {
    const auto t0 = steady::now();
    while (true) {
        try {
            return std::make_unique<svc::client>(tm, d.socket, "t" + std::to_string(tenant));
        } catch (const svc::client_error&) {
            if (seconds_since(t0) > 30) throw;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
}

child_exit stop_daemon(const daemon_proc& d) {
    kill(d.pid, SIGTERM);
    return wait_child(d.pid, 60);
}

/// A tenant's connection and its own term manager.
struct tenant_state {
    smt::term_manager tm;
    std::unique_ptr<svc::client> client;
};

/// Submits one formula and waits for the reply; returns the check verdict.
std::string round_trip(tenant_state& t, const bvformula& f, sample* s, bool measure_codec) {
    std::vector<smt::term> vars;
    sub::solve_request req;
    req.assertions = f.build(t.tm, vars);
    req.strategy = sub::strategy::automatic();
    if (measure_codec) {
        // The protocol layer, timed from outside on the same request: the
        // client's encoding and the daemon's decoding of the submit frame.
        auto t0 = steady::now();
        const auto payload = svc::encode_submit(t.tm, 1, req);
        s->encode_us = ms_since(t0) * 1e3;
        s->frame_bytes = static_cast<double>(payload.size());
        smt::term_manager scratch;
        t0 = steady::now();
        (void)svc::decode_submit(scratch, payload);
        s->decode_us = ms_since(t0) * 1e3;
    }
    try {
        const auto t0 = steady::now();
        const svc::submit_outcome sub_out = t.client->submit(req);
        if (!sub_out.accepted) return "request rejected: " + sub_out.detail;
        const svc::result_message reply = t.client->await(sub_out.request_id);
        s->rtt_ms = ms_since(t0);
        s->request_id = sub_out.request_id;
        return check_reply(f, reply);
    } catch (const std::exception& e) {
        return std::string("request failed: ") + e.what();
    }
}

/// One request's life as the daemon's own spans record it.
struct server_spans {
    double queue_ms = 0;     ///< server `queue_wait`: admission to dispatch
    double dispatch_ms = 0;  ///< server `solve`: dispatch to the reaper seeing the result
    double engine_ms = 0;    ///< engine `solve` spans inside it: the actual solving
};

/// A measured request: (tenant, round, request id within the round's session).
using request_key = std::tuple<int, std::uint64_t, std::uint64_t>;

/// Reads the daemon's trace file: request -> spans. The server records
/// `queue_wait` / `solve` with a "request" argument on the tenant's track;
/// the session's engine records its own `solve` spans (argument "query") on
/// the same track, and a tenant has one request in flight, so the engine
/// spans inside a server `solve` span belong to that request. A tenant's
/// sessions run one after another and each numbers its requests from 1, so
/// on each track a request id lower than the one before starts the next
/// session: the warm-up session first, then round 0, 1, ...
std::map<request_key, server_spans> read_server_spans(const std::string& json) {
    std::map<int, int> tid_tenant;
    static const std::regex meta(R"re("tid":(\d+),"name":"thread_name","args":\{"name":"tenant:t(\d+)"\})re");
    for (auto it = std::sregex_iterator(json.begin(), json.end(), meta); it != std::sregex_iterator(); ++it)
        tid_tenant[std::stoi((*it)[1])] = std::stoi((*it)[2]);
    struct event {
        double start_us, dur_us;
        bool queue_wait;
        std::uint64_t request;
    };
    std::map<int, std::vector<event>> server, engine_solves;  // by track
    static const std::regex ev(
        R"re("tid":(\d+),"name":"(queue_wait|solve)","ts":(\d+),"dur":(\d+),"args":\{"(request|query)":(\d+))re");
    for (auto it = std::sregex_iterator(json.begin(), json.end(), ev); it != std::sregex_iterator(); ++it) {
        const int tid = std::stoi((*it)[1]);
        if (!tid_tenant.count(tid)) continue;
        const event e{std::stod((*it)[3]), std::stod((*it)[4]), (*it)[2] == "queue_wait", std::stoull((*it)[6])};
        if ((*it)[5] == "request") server[tid].push_back(e);
        else if (!e.queue_wait) engine_solves[tid].push_back(e);
    }
    std::map<request_key, server_spans> out;
    for (auto& [tid, events] : server) {
        std::sort(events.begin(), events.end(), [](const event& a, const event& b) { return a.start_us < b.start_us; });
        std::uint64_t session = 0, last = 0;
        std::vector<std::pair<const event*, request_key>> dispatches;
        for (const event& e : events) {
            if (e.request < last) ++session;
            last = e.request;
            if (session == 0) continue;  // the warm-up session
            const request_key key{tid_tenant[tid], session - 1, e.request};
            if (e.queue_wait) {
                out[key].queue_ms = e.dur_us / 1e3;
            } else {
                out[key].dispatch_ms = e.dur_us / 1e3;
                dispatches.emplace_back(&e, key);
            }
        }
        for (const event& s : engine_solves[tid])
            for (const auto& [d, key] : dispatches)
                if (s.start_us >= d->start_us && s.start_us <= d->start_us + d->dur_us) {
                    out[key].engine_ms += s.dur_us / 1e3;
                    break;
                }
    }
    return out;
}

struct phase_result {
    std::vector<sample> samples;
    std::vector<double> round_ms;  // per tenant round
    std::map<std::string, std::uint64_t> stats;
    child_exit exit;
    double setup_s = 0;
};

/// Starts a daemon, connects the tenants, runs the warm-up pass, then the
/// closed loop for `seconds`, then stops the daemon.
phase_result run_phase(const run_options& opt, double seconds, bool measure, const std::string& trace_out,
                       const std::vector<std::vector<bvformula>>& warm, result& out, std::mutex& out_mu) {
    phase_result ph;
    const auto setup_start = steady::now();
    const daemon_proc d = start_daemon(opt, trace_out);
    std::vector<tenant_state> ts(tenants);
    try {
        for (int t = 0; t < tenants; ++t) ts[static_cast<std::size_t>(t)].client = connect(ts[static_cast<std::size_t>(t)].tm, d, t);
        // Warm-up pass: every tenant's warm-up queries, in parallel.
        std::vector<std::thread> threads;
        for (int t = 0; t < tenants; ++t)
            threads.emplace_back([&, t] {
                for (const auto& f : warm[static_cast<std::size_t>(t)]) {
                    sample s;
                    const std::string err = round_trip(ts[static_cast<std::size_t>(t)], f, &s, false);
                    if (!err.empty()) {
                        std::lock_guard lock(out_mu);
                        out.fail_check("warm-up: " + err);
                    }
                }
            });
        for (auto& th : threads) th.join();
        ph.setup_s = seconds_since(setup_start);

        if (measure) {
            std::vector<std::vector<sample>> per(tenants);
            std::vector<std::vector<double>> rounds_ms(tenants);
            const auto start = steady::now();
            threads.clear();
            for (int t = 0; t < tenants; ++t)
                threads.emplace_back([&, t] {
                    for (std::uint64_t round = 0; round == 0 || seconds_since(start) < seconds; ++round) {
                        // Each tenant round is one session: the daemon's
                        // callers are loops that connect, run and disconnect.
                        tenant_state session;
                        try {
                            session.client = connect(session.tm, d, t);
                        } catch (const std::exception& e) {
                            std::lock_guard lock(out_mu);
                            out.fail_check(std::string("tenant could not reconnect: ") + e.what());
                            return;
                        }
                        double busy_ms = 0;  // the round's time in round trips
                        for (int idx = 0; idx < per_round; ++idx) {
                            const bvformula f = request_for(opt.seed, t, round, idx, warm);
                            sample s;
                            s.tenant = t;
                            s.round = round;
                            const std::string err = round_trip(session, f, &s, opt.trace);
                            busy_ms += s.rtt_ms;
                            per[static_cast<std::size_t>(t)].push_back(s);
                            std::lock_guard lock(out_mu);
                            ++out.attempted;
                            if (!err.empty()) {
                                ++out.failed;
                                out.fail_check(err);
                            }
                        }
                        rounds_ms[static_cast<std::size_t>(t)].push_back(busy_ms);
                    }
                });
            for (auto& th : threads) th.join();
            for (int t = 0; t < tenants; ++t) {
                ph.samples.insert(ph.samples.end(), per[static_cast<std::size_t>(t)].begin(), per[static_cast<std::size_t>(t)].end());
                ph.round_ms.insert(ph.round_ms.end(), rounds_ms[static_cast<std::size_t>(t)].begin(), rounds_ms[static_cast<std::size_t>(t)].end());
            }
            ph.stats = ts[0].client->stats();
        }
    } catch (...) {
        ts.clear();
        stop_daemon(d);
        throw;
    }
    ts.clear();  // disconnect every tenant before the drain
    ph.exit = stop_daemon(d);
    if (!ph.exit.exited || ph.exit.code != 0) {
        std::lock_guard lock(out_mu);
        out.fail_check("sciductiond did not drain cleanly (signal " + std::to_string(ph.exit.signal) + ")");
    }
    return ph;
}

double mean_of(const std::vector<sample>& v, double sample::*field) {
    double s = 0;
    for (const auto& x : v) s += x.*field;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

}  // namespace

void run_daemon_tenants(const run_options& opt, result& out) {
    std::vector<std::vector<bvformula>> warm;
    for (int t = 0; t < tenants; ++t) warm.push_back(warmup_set(t));
    std::mutex out_mu;

    if (!opt.trace) {
        // Set-up (daemon start to the end of the warm-up pass) is measured
        // nine times; the ninth daemon then serves the measured loop.
        std::vector<double> setups;
        for (int rep = 0; rep < 8; ++rep) setups.push_back(run_phase(opt, 0, false, {}, warm, out, out_mu).setup_s);
        const phase_result ph = run_phase(opt, opt.seconds, true, {}, warm, out, out_mu);
        setups.push_back(ph.setup_s);
        std::vector<double> lat;
        for (const auto& s : ph.samples) lat.push_back(s.rtt_ms);
        out.metric("setup_s", median(setups));
        out.metric("wall_s", median(ph.round_ms) / 1e3);
        // The tenants' summed throughput, each over its own time in round
        // trips: request generation and reply checks are kept out.
        out.metric("req_per_s", tenants * ops_per_s(ph.samples.size(), ph.round_ms));
        out.metric("lat_p50_ms", median(lat));
        out.metric("lat_p90_ms", quantile(lat, 0.9));
        out.metric("peak_rss_mb", static_cast<double>(ph.exit.peak_rss_kb) / 1024.0);
        return;
    }

    // Traced run: half the time against an untraced daemon, half against one
    // writing its own spans (--trace-out), which give the server-side
    // queue wait and service time of every request.
    const phase_result plain = run_phase(opt, opt.seconds / 2, true, {}, warm, out, out_mu);
    const std::string trace_path = opt.tmp_dir + "/daemon_trace_" + std::to_string(getpid()) + ".json";
    const phase_result traced = run_phase(opt, opt.seconds / 2, true, trace_path, warm, out, out_mu);
    const auto spans = read_server_spans(read_file(trace_path));
    unlink(trace_path.c_str());

    // Sums for the additive accounting, per-request values for the medians
    // of the server metrics (a typical request, not one skewed by the few
    // medium ones).
    double queue_ms = 0, service_ms = 0, matched = 0, rtt_ms = 0;
    std::vector<double> queue, service, reap, tick;
    for (const auto& s : traced.samples) {
        auto it = spans.find({s.tenant, s.round, s.request_id});
        if (it == spans.end()) continue;
        const server_spans& sp = it->second;
        queue_ms += sp.queue_ms;
        service_ms += sp.engine_ms;
        rtt_ms += s.rtt_ms;
        ++matched;
        queue.push_back(sp.queue_ms);
        service.push_back(sp.engine_ms);
        reap.push_back(sp.dispatch_ms - sp.engine_ms);
        // What the round trip spends outside the queue, the service and
        // the codec: the daemon's completion tick plus the socket hops.
        tick.push_back(s.rtt_ms - sp.queue_ms - sp.engine_ms - (s.encode_us + s.decode_us) / 1e3);
    }
    if (matched == 0) out.fail_check("no daemon spans matched the tenants' requests");
    const double n = std::max(1.0, matched);
    out.metric("service.protocol.encode_us", mean_of(traced.samples, &sample::encode_us));
    out.metric("service.protocol.decode_us", mean_of(traced.samples, &sample::decode_us));
    out.metric("service.protocol.frame_bytes", mean_of(traced.samples, &sample::frame_bytes));
    out.metric("service.server.queue_wait_ms", median(queue));
    out.metric("service.server.service_ms", median(service));
    // From the end of the engine's solve to the reaper noticing it.
    out.metric("service.server.reap_wait_ms", median(reap));
    out.metric("service.server.tick_wait_ms", median(tick));
    const auto stat = [&](const std::string& k) {
        auto it = traced.stats.find(k);
        return it == traced.stats.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double lookups = stat("cache.hits") + stat("cache.misses");
    out.metric("substrate.query_cache.hits", stat("cache.hits"));
    out.metric("substrate.query_cache.structural_hits", stat("cache.structural_hits"));
    out.metric("substrate.query_cache.hit_ratio", lookups > 0 ? stat("cache.hits") / lookups : 0);
    double coalesced = 0;
    for (int t = 0; t < tenants; ++t) coalesced += stat("tenant.t" + std::to_string(t) + ".coalesced");
    out.metric("substrate.engine.coalesced", coalesced);
    out.metric("trace.round_ms", rtt_ms / n);
    out.metric("trace.untraced_round_ms", mean_of(plain.samples, &sample::rtt_ms));
    out.metric("trace.overhead_ms", rtt_ms / n - mean_of(plain.samples, &sample::rtt_ms));
    out.metric("trace.uncovered_ms", (rtt_ms - queue_ms - service_ms) / n);
    out.metric("trace.spans", static_cast<double>(spans.size()));
}

}  // namespace perfbench
