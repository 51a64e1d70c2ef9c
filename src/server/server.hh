/**
 * @file
 * The network query-serving front end: a poll()-based TCP server that
 * speaks the src/net wire protocol and executes SQL through the shared
 * sql::runStatement dispatch over a live AdaptiveEngine.
 *
 * Threading model (DESIGN.md §13):
 *
 *  - One event-loop thread owns both listening sockets (the wire port
 *    and, when Config::httpPort is set, the HTTP scrape port), the
 *    wake pipe, and every session's read side.  It accepts
 *    connections, assembles frames, answers cheap frames (HELLO,
 *    STATS, CLOSE) and HTTP scrapes (GET /metrics, GET /healthz)
 *    inline, and admits QUERY frames into a bounded queue.  It has no
 *    polling tick: every event arrives on a socket or the wake pipe,
 *    and poll() sleeps until the earliest idle deadline (forever when
 *    Config::idleTimeoutMs is 0).
 *  - A pool of worker threads pops admitted statements, executes them
 *    through AdaptiveEngine::execute (morsel-parallel, bound per query,
 *    epoch-snapshotted — a background repartition can swap the layout
 *    underneath an open connection and in-flight queries keep their
 *    snapshot), serializes the result, and writes the response frame.
 *    Each session's write side is guarded by a per-session mutex so a
 *    worker response can never interleave with an event-loop reject.
 *
 * Backpressure: QUERY frames past the Config::maxInflight watermark
 * (queued + executing) are rejected immediately with a typed
 * SERVER_BUSY error; the connection stays usable.  Statements run
 * concurrently with no server-side lock: queries, INSERTs and LOAD
 * DATA all go through the engine, whose snapshot (base partitions +
 * visible document count) gives every reader a consistent cut, so
 * writers never block readers.
 *
 * Graceful drain: requestStop() (directly, via stop(), or from the
 * SIGINT/SIGTERM handlers) stops accepting wire connections, answers
 * new QUERY frames with SHUTTING_DOWN, lets every admitted statement
 * finish and deliver its response, then shuts the loop and workers
 * down.  The HTTP listener keeps answering scrapes through the drain
 * and closes when the loop exits.  stop() blocks until the drain
 * completes.
 *
 * Sessions of both kinds are also reaped when idle longer than
 * Config::idleTimeoutMs (covers stalled half-written frames and HTTP
 * requests: any received byte counts as activity).
 */

#ifndef DVP_SERVER_SERVER_HH
#define DVP_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "engine/load.hh"
#include "net/wire.hh"
#include "sql/run.hh"
#include "storage/dictionary.hh"

namespace dvp::server
{

/** Server configuration. */
struct Config
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral (read back via port())

    /** Worker threads executing admitted statements. */
    size_t workers = 2;

    /** Admission watermark: queued + executing statements. */
    size_t maxInflight = 64;

    /** Close sessions idle longer than this; 0 disables. */
    int idleTimeoutMs = 0;

    /**
     * HTTP scrape port (GET /metrics, GET /healthz), bound on host —
     * the same interface as the wire port, which already serves the
     * same counters over STATS.  Unset = no HTTP listener; 0 =
     * ephemeral (read back via httpPort()).
     */
    std::optional<uint16_t> httpPort;

    /**
     * Serve LOAD DATA from server-local JSON-lines paths.  Off by
     * default: a remote client naming server filesystem paths is a
     * deployment decision, not a protocol default.
     */
    bool allowLoad = false;

    /**
     * Accept INSERT statements.  Off by default for the same reason as
     * allowLoad: whether remote clients may write is a deployment
     * decision.  When off, INSERT answers with a typed READ_ONLY
     * error and the engine is never touched.
     */
    bool allowInsert = false;

    /**
     * Parser lanes for LOAD DATA (tape parser over newline-aligned
     * chunks; see engine/load.hh).  The loaded database is
     * bit-identical at any value — parallel parse, serial encode.
     * 1 = fully serial.
     */
    size_t loadThreads = 4;

    /** Server name reported in HELLO_OK. */
    std::string name = "dvpd";

    /**
     * Slow-query log: a statement taking at least slowMs appends one
     * NDJSON record (statement, trace id, operator stats, layout
     * epoch, result rows and bytes) to slowLogPath.  An empty path
     * disables it; slowMs 0 logs every executed statement.
     */
    uint32_t slowMs = 0;
    std::string slowLogPath;
};

/** Aggregate counters mirrored by the dvp_server_* metrics. */
struct ServerStats
{
    uint64_t connections = 0; ///< sessions ever accepted
    uint64_t requests = 0;    ///< QUERY frames admitted
    uint64_t rejects = 0;     ///< QUERY frames rejected (busy/drain)
    uint64_t protocolErrors = 0;
    uint64_t resultRows = 0;  ///< rows of every row result executed
    uint64_t resultBytes = 0; ///< RESULT payload bytes sent
};

/**
 * Encode a RESULT frame, header included, straight from @p rows's
 * flat slots: no Cell per slot and no payload copy behind the header.
 * @p meta supplies every field but the rows (its own rows are
 * ignored); @p rows is null for a Message result.  String slots
 * resolve through @p dict, so the caller holds the DataSet read lock.
 * The bytes equal encodeFrame(Result, encodeResult(...)) over the
 * same cells.  Returns nullopt, having stopped early, once the
 * payload would exceed @p cap.
 */
std::optional<std::string>
encodeResultFrame(const net::ResultBody &meta,
                  const engine::ResultSet *rows,
                  const storage::Dictionary *dict, uint32_t level,
                  size_t cap = net::kMaxPayload);

/** The server.  One instance serves one AdaptiveEngine. */
class Server
{
  public:
    explicit Server(adaptive::AdaptiveEngine &engine, Config cfg = {});
    ~Server(); ///< stop()s if still running

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the loop + workers.  "" on success. */
    std::string start();

    /** Bound port (after start(); useful with Config::port = 0). */
    uint16_t port() const { return port_; }

    /** Bound HTTP port after start(); 0 when Config::httpPort is unset. */
    uint16_t httpPort() const { return http_port_; }

    /** True between a successful start() and the end of stop(). */
    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /**
     * Begin a graceful drain without blocking.  Safe from any thread;
     * also the only thing the signal handlers do (one write to the
     * wake pipe — async-signal-safe).
     */
    void requestStop();

    /** Drain and join.  Idempotent; blocks until fully stopped. */
    void stop();

    /**
     * True once the event loop has finished draining (all admitted
     * statements answered, sessions shut down).  Lets a daemon wait
     * for a signal-triggered drain before calling stop().
     */
    bool drained() const
    {
        return loop_done_.load(std::memory_order_acquire);
    }

    /**
     * Block until drained() is true: a daemon's main thread parks here
     * until a signal-triggered drain completes, then calls stop().
     */
    void waitDrained() const { loop_done_.wait(false); }

    /** statements queued + executing right now (tests, admission). */
    size_t inflight() const
    {
        return inflight_.load(std::memory_order_acquire);
    }

    /** Aggregate counters (snapshot). */
    ServerStats stats() const;

    /**
     * Test hook, called by a worker thread after dequeuing a statement
     * and before executing it, inside the statement's timed execute
     * stage.  Lets tests hold statements in flight deterministically
     * (backpressure, drain and slow-query-log assertions).
     */
    void setExecuteHook(std::function<void()> hook);

    /**
     * Route SIGINT/SIGTERM to @p s->requestStop() (nullptr restores
     * SIG_DFL).  One server per process can be the signal target.
     */
    static void installSignalHandlers(Server *s);

  private:
    struct Session;
    struct Task
    {
        std::shared_ptr<Session> session;
        std::string sql;
        uint64_t enqueuedNs = 0;
        bool hasTraceId = false; ///< client sent a trace-id TLV
        uint64_t traceId = 0;
    };

    void eventLoop();
    void workerLoop();
    void wake();

    int pollTimeoutMs(int64_t now_ms) const;
    void acceptOne(int lfd);
    void serviceSession(const std::shared_ptr<Session> &s);
    void handleFrame(const std::shared_ptr<Session> &s,
                     const net::Frame &f);
    void serviceHttp(const std::shared_ptr<Session> &s, bool eof);
    void closeSession(const std::shared_ptr<Session> &s);
    void reapIdle(int64_t now_ms);
    size_t
    wireSessions() const
    {
        return sessions.size() - http_sessions;
    }

    void executeTask(Task &task);
    net::StatsBody buildStats();
    void logSlowQuery(const Task &task, const sql::RunResult &r,
                      uint64_t execNs, uint64_t resultRows,
                      uint64_t resultBytes);

    adaptive::AdaptiveEngine *engine;
    Config cfg;

    int listen_fd = -1;
    uint16_t port_ = 0;
    int http_fd = -1; ///< HTTP listener; -1 when off or after the loop
    uint16_t http_port_ = 0;
    int wake_rd = -1, wake_wr = -1;

    std::thread loop_thread;
    std::vector<std::thread> worker_threads;

    /** Sessions keyed by fd; touched only by the event loop. */
    std::unordered_map<int, std::shared_ptr<Session>> sessions;
    size_t http_sessions = 0; ///< of which HTTP connections
    uint64_t next_session_id = 1;

    std::mutex queue_mu;
    std::condition_variable queue_cv;
    std::deque<Task> queue;
    bool workers_quit = false;

    std::atomic<size_t> inflight_{0};
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> loop_done_{false};

    mutable std::mutex stats_mu;
    ServerStats stats_;

    /**
     * Cumulative LOAD-pipeline counters (STATS: parse_docs_total,
     * parse_bytes_total, load_*_ns_total).  Added to by the worker
     * running a LOAD; read lock-free by the event loop's STATS
     * handler.
     */
    std::atomic<uint64_t> parse_docs_{0};
    std::atomic<uint64_t> parse_bytes_{0};
    std::atomic<uint64_t> load_index_ns_{0};
    std::atomic<uint64_t> load_flatten_ns_{0};
    std::atomic<uint64_t> load_encode_ns_{0};

    std::mutex hook_mu;
    std::function<void()> execute_hook;

    std::mutex slow_mu; ///< serializes slow-query log appends

    std::mutex stop_mu; ///< serializes stop() callers
};

} // namespace dvp::server

#endif // DVP_SERVER_SERVER_HH
