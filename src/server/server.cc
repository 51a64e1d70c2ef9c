#include "server/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "json/parser.hh"
#include "net/socket.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sql/run.hh"
#include "util/logging.hh"

namespace dvp::server
{

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** A complete ERROR frame. */
std::string
errorFrame(net::ErrorCode code, const std::string &message)
{
    return net::encodeFrame(net::FrameType::Error,
                            net::encodeError(net::ErrorBody{code, message}));
}

/** An HTTP request whose headers run past this is dropped unanswered. */
constexpr size_t kMaxHttpRequestBytes = 8192;

std::string
httpResponse(int code, const char *status, const std::string &type,
             const std::string &body)
{
    std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                       status + "\r\n";
    head += "Content-Type: " + type + "\r\n";
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    head += "Connection: close\r\n\r\n";
    return head + body;
}

/** The response to one HTTP request line, "GET <path> HTTP/1.x". */
std::string
httpRespond(const std::string &request_line)
{
    size_t sp1 = request_line.find(' ');
    size_t sp2 =
        sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return httpResponse(400, "Bad Request", "text/plain",
                            "bad request\n");
    std::string method = request_line.substr(0, sp1);
    std::string path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (method != "GET")
        return httpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is supported\n");
    if (path == "/metrics")
        return httpResponse(200, "OK",
                            "text/plain; version=0.0.4; charset=utf-8",
                            obs::exportPrometheus(obs::Registry::global()));
    if (path == "/healthz")
        return httpResponse(200, "OK", "text/plain", "ok\n");
    return httpResponse(404, "Not Found", "text/plain",
                        "unknown path; try /metrics or /healthz\n");
}

/** The process-wide signal target (see installSignalHandlers). */
std::atomic<Server *> g_signal_target{nullptr};

void
onStopSignal(int)
{
    Server *s = g_signal_target.load(std::memory_order_relaxed);
    if (s)
        s->requestStop();
}

} // namespace

/** Per-connection state.  The event loop owns the read side; any
 * thread may write a frame under write_mu.  The fd closes when the
 * last shared_ptr drops, so a worker finishing late can never write
 * into a recycled descriptor.  An HTTP session (http = true) buffers
 * its request in `request` and is answered and closed by the loop;
 * no worker ever holds one. */
struct Server::Session
{
    int fd = -1;
    uint64_t id = 0;
    bool http = false;
    std::string request; ///< HTTP request bytes until the blank line
    net::FrameAssembler in;
    bool helloDone = false;

    /** Negotiated feature level (min of both sides; see wire.hh). */
    uint32_t featureLevel = net::kFeatureBase;
    int64_t lastActivityMs = 0;
    std::atomic<bool> dead{false};
    std::mutex write_mu;

    ~Session() { net::closeFd(fd); }

    /** Send one complete frame (header included). */
    bool
    sendFrame(const std::string &frame)
    {
        std::lock_guard<std::mutex> lock(write_mu);
        if (dead.load(std::memory_order_relaxed))
            return false;
        if (!net::sendAll(fd, frame.data(), frame.size())) {
            dead.store(true, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    bool
    writeFrame(net::FrameType type, const std::string &payload)
    {
        return sendFrame(net::encodeFrame(type, payload));
    }

    bool
    writeError(net::ErrorCode code, const std::string &message)
    {
        return sendFrame(errorFrame(code, message));
    }
};

Server::Server(adaptive::AdaptiveEngine &engine, Config cfg)
    : engine(&engine), cfg(std::move(cfg))
{
    if (this->cfg.workers == 0)
        this->cfg.workers = 1;
    if (this->cfg.maxInflight == 0)
        this->cfg.maxInflight = 1;
}

Server::~Server()
{
    if (g_signal_target.load(std::memory_order_relaxed) == this)
        installSignalHandlers(nullptr);
    stop();
}

std::string
Server::start()
{
    if (running())
        return "server already running";

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return std::string("pipe: ") + std::strerror(errno);
    wake_rd = pipefd[0];
    wake_wr = pipefd[1];
    setNonBlocking(wake_rd);
    setNonBlocking(wake_wr);

    std::string err;
    listen_fd = net::listenTcp(cfg.host, cfg.port, &port_, &err);
    if (listen_fd >= 0 && cfg.httpPort) {
        http_fd = net::listenTcp(cfg.host, *cfg.httpPort, &http_port_,
                                 &err);
        if (http_fd < 0) {
            err = "http: " + err;
            net::closeFd(listen_fd);
            listen_fd = -1;
        }
    }
    if (listen_fd < 0) {
        net::closeFd(wake_rd);
        net::closeFd(wake_wr);
        wake_rd = wake_wr = -1;
        return err;
    }
    setNonBlocking(listen_fd);
    if (http_fd >= 0)
        setNonBlocking(http_fd);

    stop_requested_.store(false);
    draining_.store(false);
    loop_done_.store(false);
    workers_quit = false;
    running_.store(true, std::memory_order_release);

    loop_thread = std::thread([this] { eventLoop(); });
    for (size_t i = 0; i < cfg.workers; ++i)
        worker_threads.emplace_back([this] { workerLoop(); });

    inform("%s: listening on %s:%u (%zu workers, max-inflight %zu)",
           cfg.name.c_str(), cfg.host.c_str(), unsigned(port_),
           cfg.workers, cfg.maxInflight);
    if (http_fd >= 0)
        inform("%s: serving /metrics and /healthz on %s:%u",
               cfg.name.c_str(), cfg.host.c_str(), unsigned(http_port_));
    return "";
}

void
Server::wake()
{
    if (wake_wr >= 0) {
        char b = 'w';
        // Best effort: a full pipe already guarantees a pending wake.
        [[maybe_unused]] long rc = ::write(wake_wr, &b, 1);
    }
}

void
Server::requestStop()
{
    stop_requested_.store(true, std::memory_order_release);
    wake();
}

void
Server::stop()
{
    std::lock_guard<std::mutex> lock(stop_mu);
    if (!loop_thread.joinable() && worker_threads.empty())
        return;

    requestStop();
    if (loop_thread.joinable())
        loop_thread.join();
    {
        std::lock_guard<std::mutex> qlock(queue_mu);
        workers_quit = true;
    }
    queue_cv.notify_all();
    for (std::thread &t : worker_threads)
        if (t.joinable())
            t.join();
    worker_threads.clear();

    net::closeFd(wake_rd);
    net::closeFd(wake_wr);
    wake_rd = wake_wr = -1;
    running_.store(false, std::memory_order_release);
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu);
    return stats_;
}

void
Server::setExecuteHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(hook_mu);
    execute_hook = std::move(hook);
}

void
Server::installSignalHandlers(Server *s)
{
    g_signal_target.store(s, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = s ? onStopSignal : SIG_DFL;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: blocked syscalls return
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

// ---------------------------------------------------------------------
// Event loop.
// ---------------------------------------------------------------------

int
Server::pollTimeoutMs(int64_t now_ms) const
{
    // No tick: every other event arrives on a socket or the wake pipe,
    // so only the earliest idle deadline bounds the wait.
    if (cfg.idleTimeoutMs <= 0 || sessions.empty())
        return -1;
    int64_t oldest = INT64_MAX;
    for (const auto &[fd, s] : sessions)
        oldest = std::min(oldest, s->lastActivityMs);
    // reapIdle closes a session once strictly past its timeout.
    int64_t wait = oldest + cfg.idleTimeoutMs + 1 - now_ms;
    return static_cast<int>(std::clamp<int64_t>(wait, 0, INT_MAX));
}

void
Server::eventLoop()
{
    std::vector<pollfd> pfds;
    while (true) {
        if (stop_requested_.load(std::memory_order_acquire) &&
            !draining_.load(std::memory_order_relaxed)) {
            // Begin the drain: no new wire connections, no new
            // admissions; everything already admitted runs to
            // completion.  The HTTP listener stays open.
            draining_.store(true, std::memory_order_seq_cst);
            net::closeFd(listen_fd);
            listen_fd = -1;
            debug("server: draining (%zu inflight)", inflight());
        }
        if (draining_.load(std::memory_order_relaxed)) {
            bool queue_empty;
            {
                std::lock_guard<std::mutex> lock(queue_mu);
                queue_empty = queue.empty();
            }
            // seq_cst pairs with the worker's fetch_sub + draining_
            // load: at least one side sees the other's write, so
            // either this reads 0 or the worker wakes the loop.
            if (queue_empty &&
                inflight_.load(std::memory_order_seq_cst) == 0)
                break; // drain complete
        }

        pfds.clear();
        pfds.push_back({wake_rd, POLLIN, 0});
        if (listen_fd >= 0)
            pfds.push_back({listen_fd, POLLIN, 0});
        if (http_fd >= 0)
            pfds.push_back({http_fd, POLLIN, 0});
        for (auto &[fd, s] : sessions)
            pfds.push_back({fd, POLLIN, 0});

        int rc = ::poll(pfds.data(), pfds.size(), pollTimeoutMs(nowMs()));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("server poll: %s", std::strerror(errno));
            break;
        }
        for (const pollfd &p : pfds) {
            if (p.revents == 0)
                continue;
            if (p.fd == wake_rd) {
                char buf[64];
                while (::read(wake_rd, buf, sizeof(buf)) > 0) {
                }
            } else if (p.fd == listen_fd || p.fd == http_fd) {
                acceptOne(p.fd);
            } else {
                auto it = sessions.find(p.fd);
                if (it == sessions.end())
                    continue;
                std::shared_ptr<Session> s = it->second;
                if (p.revents & (POLLERR | POLLNVAL))
                    closeSession(s);
                else
                    serviceSession(s); // POLLHUP still drains the data
            }
        }
        if (cfg.idleTimeoutMs > 0)
            reapIdle(nowMs());
    }

    // Drain complete: every admitted statement has answered.  Shut
    // sessions down so clients observe EOF; fds close when the last
    // reference drops.
    for (auto &[fd, s] : sessions) {
        s->dead.store(true, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
    }
    sessions.clear();
    http_sessions = 0;
    net::closeFd(listen_fd);
    listen_fd = -1;
    net::closeFd(http_fd);
    http_fd = -1;
    DVP_GAUGE_SET("dvp_server_sessions_active", 0);
    loop_done_.store(true, std::memory_order_release);
    loop_done_.notify_all();
}

void
Server::acceptOne(int lfd)
{
    const bool http = lfd == http_fd;
    while (true) {
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: accepted everything pending
        }
        setNonBlocking(fd);
        auto s = std::make_shared<Session>();
        s->fd = fd;
        s->id = next_session_id++;
        s->http = http;
        s->lastActivityMs = nowMs();
        sessions.emplace(fd, std::move(s));
        if (http) {
            // Scrapes stay out of the wire counters.
            ++http_sessions;
            continue;
        }
        DVP_TRACE_SPAN(accept_span, "accept", nullptr);
        DVP_COUNTER_INC("dvp_server_connections_total");
        DVP_GAUGE_SET("dvp_server_sessions_active",
                      static_cast<int64_t>(wireSessions()));
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats_.connections;
        }
    }
}

void
Server::closeSession(const std::shared_ptr<Session> &s)
{
    if (sessions.erase(s->fd) == 0)
        return; // already closed this iteration
    s->dead.store(true, std::memory_order_relaxed);
    ::shutdown(s->fd, SHUT_RDWR);
    if (s->http)
        --http_sessions;
    else
        DVP_GAUGE_SET("dvp_server_sessions_active",
                      static_cast<int64_t>(wireSessions()));
}

void
Server::reapIdle(int64_t now_ms)
{
    std::vector<std::shared_ptr<Session>> idle;
    for (auto &[fd, s] : sessions)
        if (now_ms - s->lastActivityMs > cfg.idleTimeoutMs)
            idle.push_back(s);
    for (auto &s : idle) {
        debug("server: closing idle session %llu",
              static_cast<unsigned long long>(s->id));
        closeSession(s);
    }
}

void
Server::serviceSession(const std::shared_ptr<Session> &s)
{
    DVP_TRACE_SPAN(session_span, "session", nullptr);
    char buf[65536];
    bool eof = false;
    while (true) {
        long got = net::recvSome(s->fd, buf, sizeof(buf));
        if (got > 0) {
            s->lastActivityMs = nowMs();
            if (s->http)
                s->request.append(buf, static_cast<size_t>(got));
            else
                s->in.feed(buf, static_cast<size_t>(got));
            if (got < static_cast<long>(sizeof(buf)) ||
                s->request.size() > kMaxHttpRequestBytes)
                break;
            continue;
        }
        if (got == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeSession(s);
        return;
    }
    if (s->http) {
        serviceHttp(s, eof);
        return;
    }

    net::Frame f;
    while (!s->dead.load(std::memory_order_relaxed) && s->in.next(f))
        handleFrame(s, f);

    if (s->in.error()) {
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats_.protocolErrors;
        }
        DVP_COUNTER_INC("dvp_server_protocol_errors_total");
        s->writeError(net::ErrorCode::Protocol, s->in.errorDetail());
        closeSession(s);
        return;
    }
    if (eof || s->dead.load(std::memory_order_relaxed))
        closeSession(s);
}

void
Server::serviceHttp(const std::shared_ptr<Session> &s, bool eof)
{
    // The headers are complete at the blank line; until then keep
    // buffering.  A request past the cap, or EOF before the blank
    // line, closes with no response.  Every answer closes the
    // connection (Connection: close), which is how a scraper
    // connects anyway.
    if (s->request.size() <= kMaxHttpRequestBytes) {
        if (s->request.find("\r\n\r\n") != std::string::npos) {
            std::string response =
                httpRespond(s->request.substr(0, s->request.find("\r\n")));
            net::sendAll(s->fd, response.data(), response.size());
        } else if (!eof) {
            return;
        }
    }
    closeSession(s);
}

void
Server::handleFrame(const std::shared_ptr<Session> &s,
                    const net::Frame &f)
{
    switch (f.type) {
      case net::FrameType::Hello: {
        net::HelloBody hello;
        if (!decodeHello(f.payload, hello)) {
            s->writeError(net::ErrorCode::Protocol,
                          "malformed HELLO payload");
            closeSession(s);
            return;
        }
        if (hello.wireVersion < net::kFeatureBase) {
            s->writeError(net::ErrorCode::Protocol,
                          "unsupported wire version " +
                              std::to_string(hello.wireVersion));
            closeSession(s);
            return;
        }
        s->helloDone = true;
        // Negotiate down to the highest level both sides speak; a
        // pre-TLV client (level 1) gets level-1 frames, byte-identical
        // to the old encoding.
        s->featureLevel =
            std::min(hello.wireVersion, net::kFeatureLevel);
        net::HelloOkBody ok;
        ok.wireVersion = s->featureLevel;
        ok.serverName = cfg.name;
        ok.sessionId = s->id;
        s->writeFrame(net::FrameType::HelloOk, encodeHelloOk(ok));
        return;
      }

      case net::FrameType::Query: {
        if (!s->helloDone) {
            s->writeError(net::ErrorCode::Protocol,
                          "QUERY before HELLO");
            closeSession(s);
            return;
        }
        net::QueryBody q;
        if (!decodeQuery(f.payload, q)) {
            s->writeError(net::ErrorCode::Protocol,
                          "malformed QUERY payload");
            closeSession(s);
            return;
        }
        if (draining_.load(std::memory_order_relaxed)) {
            DVP_COUNTER_INC("dvp_server_rejects_total");
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats_.rejects;
            s->writeError(net::ErrorCode::ShuttingDown,
                          "server is draining");
            return;
        }
        if (inflight_.load(std::memory_order_acquire) >=
            cfg.maxInflight) {
            DVP_COUNTER_INC("dvp_server_rejects_total");
            {
                std::lock_guard<std::mutex> lock(stats_mu);
                ++stats_.rejects;
            }
            s->writeError(net::ErrorCode::ServerBusy,
                          "admission queue full (max-inflight " +
                              std::to_string(cfg.maxInflight) + ")");
            return;
        }
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        DVP_COUNTER_INC("dvp_server_requests_total");
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats_.requests;
        }
        {
            std::lock_guard<std::mutex> lock(queue_mu);
            queue.push_back(Task{s, std::move(q.sql), nowNs(),
                                 q.hasTraceId, q.traceId});
            DVP_GAUGE_SET("dvp_server_queue_depth",
                          static_cast<int64_t>(queue.size()));
        }
        queue_cv.notify_one();
        return;
      }

      case net::FrameType::Stats: {
        if (!s->helloDone) {
            s->writeError(net::ErrorCode::Protocol,
                          "STATS before HELLO");
            closeSession(s);
            return;
        }
        s->writeFrame(net::FrameType::StatsResult,
                      encodeStats(buildStats()));
        return;
      }

      case net::FrameType::Close:
        closeSession(s);
        return;

      default:
        s->writeError(net::ErrorCode::Protocol,
                      std::string("unexpected frame ") +
                          net::frameTypeName(f.type));
        closeSession(s);
        return;
    }
}

net::StatsBody
Server::buildStats()
{
    ServerStats snap = stats();
    net::StatsBody body;
    body.entries.emplace_back("connections_total", snap.connections);
    body.entries.emplace_back("requests_total", snap.requests);
    body.entries.emplace_back("rejects_total", snap.rejects);
    body.entries.emplace_back("protocol_errors_total",
                              snap.protocolErrors);
    body.entries.emplace_back("sessions_active", wireSessions());
    body.entries.emplace_back("inflight", inflight());
    body.entries.emplace_back("result_rows_total", snap.resultRows);
    body.entries.emplace_back("result_bytes_total", snap.resultBytes);
    body.entries.emplace_back(
        "parse_docs_total",
        parse_docs_.load(std::memory_order_relaxed));
    body.entries.emplace_back(
        "parse_bytes_total",
        parse_bytes_.load(std::memory_order_relaxed));
    body.entries.emplace_back(
        "load_index_ns_total",
        load_index_ns_.load(std::memory_order_relaxed));
    body.entries.emplace_back(
        "load_flatten_ns_total",
        load_flatten_ns_.load(std::memory_order_relaxed));
    body.entries.emplace_back(
        "load_encode_ns_total",
        load_encode_ns_.load(std::memory_order_relaxed));
    body.entries.emplace_back(
        "repartitions_total",
        engine->adaptation().repartitions.load(
            std::memory_order_relaxed));
    {
        // One consistent cut: base partitions plus the document count
        // visible at this instant.  "docs" counts everything a query
        // started now would see; the delta is the rows past the base.
        adaptive::Snapshot snap = engine->snapshotFull();
        body.entries.emplace_back("docs", snap.docs);
        body.entries.emplace_back("delta_rows", snap.deltaRows());
        body.entries.emplace_back(
            "delta_bytes",
            snap.base->data().docs.bytes(snap.base->docCount(),
                                         snap.docs));
        body.entries.emplace_back("layout_epoch", snap.epoch);
    }

    // Adaptive-decision audit: ring occupancy plus the most recent
    // record, flattened into counters (costs scaled to milli-units to
    // fit the u64 schema).
    std::vector<adaptive::AuditRecord> trail = engine->auditTrail();
    body.entries.emplace_back("audit_records", trail.size());
    if (!trail.empty()) {
        const adaptive::AuditRecord &last = trail.back();
        body.entries.emplace_back("audit_last_seq", last.seq);
        body.entries.emplace_back("audit_last_tables", last.tables);
        body.entries.emplace_back("audit_last_iterations",
                                  last.iterations);
        body.entries.emplace_back("audit_last_moves", last.moves);
        body.entries.emplace_back(
            "audit_last_initial_cost_milli",
            static_cast<uint64_t>(last.initialCost * 1000.0));
        body.entries.emplace_back(
            "audit_last_final_cost_milli",
            static_cast<uint64_t>(last.finalCost * 1000.0));
        body.entries.emplace_back("audit_last_layout_fingerprint",
                                  last.layoutFingerprint);
        body.entries.emplace_back("audit_last_partitioner_ns",
                                  last.partitionerNs);
        body.entries.emplace_back("audit_last_build_ns", last.buildNs);
        body.entries.emplace_back("audit_last_swap_ns", last.swapNs);
        body.entries.emplace_back("audit_last_docs_caught_up",
                                  last.docsCaughtUp);
        body.entries.emplace_back("audit_last_delta_folded",
                                  last.deltaFolded);
    }

    // Durability: WAL position and checkpoint/recovery counters, only
    // when the engine runs with a durable data directory.
    if (durability::Manager *dur = engine->durability()) {
        const durability::Wal *wal = dur->wal();
        const durability::ManagerStats &ds = dur->stats();
        body.entries.emplace_back("wal_appended_lsn",
                                  wal->appendedLsn());
        body.entries.emplace_back("wal_durable_lsn", wal->durableLsn());
        body.entries.emplace_back("wal_bytes_total",
                                  wal->bytesAppended());
        body.entries.emplace_back("wal_segments",
                                  wal->liveSegments().size());
        body.entries.emplace_back(
            "checkpoints_total",
            ds.checkpoints.load(std::memory_order_relaxed));
        body.entries.emplace_back(
            "last_checkpoint_lsn",
            ds.lastCheckpointLsn.load(std::memory_order_relaxed));
        body.entries.emplace_back(
            "last_checkpoint_docs",
            ds.lastCheckpointDocs.load(std::memory_order_relaxed));
        body.entries.emplace_back(
            "recovered_docs",
            ds.recoveredDocs.load(std::memory_order_relaxed));
        body.entries.emplace_back(
            "wal_replayed_records",
            ds.replayedRecords.load(std::memory_order_relaxed));
        body.entries.emplace_back(
            "recovery_ms",
            ds.recoveryMs.load(std::memory_order_relaxed));
    }
    return body;
}

namespace
{

/** Minimal JSON string escape for statement text in NDJSON records. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += hex;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

} // namespace

void
Server::logSlowQuery(const Task &task, const sql::RunResult &r,
                     uint64_t execNs, uint64_t resultRows,
                     uint64_t resultBytes)
{
    std::string line = "{\"statement\":\"" + jsonEscape(task.sql) +
                       "\"";
    if (task.hasTraceId) {
        char id[32];
        std::snprintf(id, sizeof(id), "%016" PRIx64, task.traceId);
        line += std::string(",\"trace_id\":\"") + id + "\"";
    }
    line += ",\"exec_ns\":" + std::to_string(execNs);
    line += ",\"layout_epoch\":" + std::to_string(r.stats.planEpoch);
    line += ",\"result_rows\":" + std::to_string(resultRows);
    line += ",\"result_bytes\":" + std::to_string(resultBytes);
    if (r.hasStats) {
        line += ",\"stats\":{";
        bool first = true;
        for (const auto &[key, value] : r.stats.summary()) {
            if (!first)
                line += ",";
            first = false;
            line += "\"" + key + "\":" + std::to_string(value);
        }
        line += "}";
    }
    if (r.hasLoadStats) {
        const engine::LoadStats &ls = r.loadStats;
        line += ",\"load\":{\"index_ns\":" + std::to_string(ls.indexNs) +
                ",\"flatten_ns\":" + std::to_string(ls.walkNs) +
                ",\"encode_ns\":" + std::to_string(ls.encodeNs) +
                ",\"docs\":" + std::to_string(ls.docs) +
                ",\"bytes\":" + std::to_string(ls.bytes) + "}";
    }
    line += "}\n";

    std::lock_guard<std::mutex> lock(slow_mu);
    std::ofstream out(cfg.slowLogPath, std::ios::app);
    if (out)
        out << line;
}

std::optional<std::string>
encodeResultFrame(const net::ResultBody &meta,
                  const engine::ResultSet *rows,
                  const storage::Dictionary *dict, uint32_t level,
                  size_t cap)
{
    const size_t nrows = rows == nullptr ? 0 : rows->rowCount();
    const size_t width = rows == nullptr ? 0 : rows->width();
    // Reserve for 9-byte (integer) cells; string cells grow the buffer.
    net::Writer w = net::Writer::forFrame(
        std::min(cap, 256 + meta.oids.size() * sizeof(int64_t) +
                          nrows * (4 + width * 9)));
    net::putResultHead(w, meta, static_cast<uint32_t>(nrows));
    for (size_t i = 0; i < nrows; ++i) {
        net::putRowHead(w, static_cast<uint32_t>(width));
        for (storage::Slot s : rows->row(i)) {
            if (storage::isNull(s))
                net::putCell(w, net::Cell::Kind::Null);
            else if (storage::isStringSlot(s))
                net::putCell(w, net::Cell::Kind::Str, 0,
                             dict->text(storage::decodeString(s)));
            else
                net::putCell(w, net::Cell::Kind::Int, s);
        }
        if (w.payloadSize() > cap)
            return std::nullopt;
    }
    net::putResultTail(w, meta, level);
    if (w.payloadSize() > cap)
        return std::nullopt;
    return w.finishFrame(net::FrameType::Result);
}

// ---------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------

void
Server::workerLoop()
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(queue_mu);
            queue_cv.wait(lock, [this] {
                return workers_quit || !queue.empty();
            });
            if (queue.empty()) {
                if (workers_quit)
                    return;
                continue;
            }
            task = std::move(queue.front());
            queue.pop_front();
            DVP_GAUGE_SET("dvp_server_queue_depth",
                          static_cast<int64_t>(queue.size()));
        }
        executeTask(task);
    }
}

void
Server::executeTask(Task &task)
{
    const uint64_t t_dequeued = nowNs();
    engine::LoadOptions load;
    load.threads = cfg.loadThreads == 0 ? 1 : cfg.loadThreads;
    load.timeStages = true;

    const uint64_t t_exec = nowNs();
    {
        std::function<void()> hook;
        {
            std::lock_guard<std::mutex> lock(hook_mu);
            hook = execute_hook;
        }
        if (hook)
            hook();
    }
    sql::RunResult r;
    {
        // Client-propagated trace id, stamped into the span so a wire
        // request can be matched against the server-side trace dump.
        char trace_detail[32];
        const char *detail = nullptr;
        if (task.hasTraceId) {
            std::snprintf(trace_detail, sizeof(trace_detail),
                          "trace=%016" PRIx64, task.traceId);
            detail = trace_detail;
        }
        DVP_TRACE_SPAN(exec_span, "execute", detail);
        // The engine snapshots an (epoch, base, delta-prefix) cut per
        // statement, so a concurrent INSERT or LOAD append never
        // changes what a reader sees.
        r = sql::runStatement(*engine, task.sql,
                              cfg.allowLoad ? &load : nullptr,
                              cfg.allowInsert);
    }
    if (r.hasLoadStats) {
        const engine::LoadStats &ls = r.loadStats;
        parse_docs_.fetch_add(ls.docs, std::memory_order_relaxed);
        parse_bytes_.fetch_add(ls.bytes, std::memory_order_relaxed);
        load_index_ns_.fetch_add(ls.indexNs, std::memory_order_relaxed);
        load_flatten_ns_.fetch_add(ls.walkNs, std::memory_order_relaxed);
        load_encode_ns_.fetch_add(ls.encodeNs, std::memory_order_relaxed);
    }

    const uint64_t t_encode = nowNs();
    std::string frame;
    uint64_t result_rows = 0, result_bytes = 0;
    if (!r.ok) {
        net::ErrorCode code = net::ErrorCode::Exec;
        if (r.errorKind == sql::RunResult::Error::Parse)
            code = net::ErrorCode::Parse;
        else if (r.errorKind == sql::RunResult::Error::Unsupported)
            code = net::ErrorCode::Unsupported;
        else if (r.errorKind == sql::RunResult::Error::ReadOnly)
            code = net::ErrorCode::ReadOnly;
        frame = errorFrame(code, r.error);
    } else {
        net::ResultBody body;
        body.execNs = static_cast<uint64_t>(r.seconds * 1e9);
        // Level-2 extras: echo the trace id and ship the per-operator
        // summary.  The encoder drops both on level-1 sessions, so a
        // pre-TLV client still decodes the frame unchanged.
        body.hasTraceId = task.hasTraceId;
        body.traceId = task.traceId;
        if (r.hasStats)
            body.opStats = r.stats.summary();
        std::optional<std::string> encoded;
        if (r.kind == sql::RunResult::Kind::Message) {
            body.kind = net::ResultBody::Kind::Message;
            body.message = r.message;
            encoded = encodeResultFrame(body, nullptr, nullptr,
                                        task.session->featureLevel);
        } else {
            const engine::DataSet &data = engine->snapshot()->data();
            body.kind = net::ResultBody::Kind::Rows;
            body.digest = r.rows.digest();
            body.checksum = r.rows.checksum;
            body.oids = std::move(r.rows.oids);
            result_rows = r.rows.rowCount();
            // DataSet read lock while resolving headers and string
            // ids: a concurrent INSERT or LOAD grows the catalog and
            // the dictionary.
            auto lock = data.readLock();
            body.columns = sql::resultColumns(data, r.query);
            encoded = encodeResultFrame(body, &r.rows, &data.dict,
                                        task.session->featureLevel);
        }
        if (encoded) {
            frame = std::move(*encoded);
            result_bytes = frame.size() - net::kHeaderBytes;
        } else {
            frame = errorFrame(
                net::ErrorCode::ResultTooLarge,
                "result of " + std::to_string(result_rows) +
                    " rows exceeds the " +
                    std::to_string(net::kMaxPayload >> 20) +
                    " MiB frame limit");
        }
    }
    {
        // Counted before the send: a client that has its answer and
        // asks for STATS sees this request in the totals.
        std::lock_guard<std::mutex> lock(stats_mu);
        stats_.resultRows += result_rows;
        stats_.resultBytes += result_bytes;
    }
    const uint64_t t_send = nowNs();
    task.session->sendFrame(frame);
    const uint64_t t_done = nowNs();

    DVP_HISTOGRAM_OBSERVE("dvp_server_stage_ns{stage=\"queue\"}",
                          t_dequeued - task.enqueuedNs);
    DVP_HISTOGRAM_OBSERVE("dvp_server_stage_ns{stage=\"execute\"}",
                          t_encode - t_exec);
    DVP_HISTOGRAM_OBSERVE("dvp_server_stage_ns{stage=\"encode\"}",
                          t_send - t_encode);
    DVP_HISTOGRAM_OBSERVE("dvp_server_stage_ns{stage=\"send\"}",
                          t_done - t_send);
    // The gate is the execute stage's wall time (parse, lock waits and
    // execution, every statement kind); --slow-ms 0 logs every
    // executed statement.
    if (r.ok && !cfg.slowLogPath.empty() &&
        t_encode - t_exec >= cfg.slowMs * 1000000ull) {
        DVP_COUNTER_INC("dvp_server_slow_queries_total");
        logSlowQuery(task, r, t_encode - t_exec, result_rows,
                     result_bytes);
    }

    // seq_cst, paired with the loop's draining_ store + inflight_
    // load: with weaker orders both sides could read the old value, and
    // the loop, which polls with no tick, would wait forever.
    inflight_.fetch_sub(1, std::memory_order_seq_cst);
    if (draining_.load(std::memory_order_seq_cst))
        wake(); // the event loop finishes the drain
    task.session.reset();
}

} // namespace dvp::server
