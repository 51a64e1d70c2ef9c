/**
 * pbtool — the benchmark's C++ half (see perfbench/README.md).
 *
 *   pbtool gen     --seed S --docs N --extra M --load-out F --extra-out F
 *       Seeded NoBench NDJSON: N documents to LOAD, then M more (oids
 *       continuing) to INSERT.
 *   pbtool read    --port P --stmts F --conns C --seconds T --trace 0|1
 *                  --out F [--refs-out F]
 *       Closed-loop wire run: untimed warm-up until the layout settles,
 *       then a window of T seconds of clean CPU (see StealLog).
 *       --trace 1 splits T between an untraced and a traced window.
 *   pbtool ingest  --port P --stmts F --inserts F --base-docs N
 *                  --batch B --seconds T --out F --refs-out F [--reader 0]
 *       One INSERT writer plus one reader running the statements; every
 *       read is checked for snapshot consistency against the final state.
 *       --reader 0 sends the INSERTs alone.
 *   pbtool verify  --port P --stmts F --refs F --inserts F --base-docs N
 *                  --acked M --out F
 *       After a restart: every statement matches its reference and every
 *       acknowledged INSERT is readable.
 *   pbtool probe   --load F --stmts F [--inserts F] [--passes R --loads L]
 *                  [--dir D --batch B --ingest-docs N --checkpoint-wal-mb M]
 *                  --out F
 *       In-process layer probe: LOAD, bind, row counts, a timed
 *       sql::runStatement replay (--passes), the durable ingest path
 *       (--dir) and row counts with the inserts loaded (--inserts).
 *   pbtool ping    --port-file F
 *       Wait until dvpd answers its first query; prints the port.
 *   pbtool selftest
 *       Checks of the content hash and of the snapshot-cut check.
 *
 * Every output is one JSON object written to --out.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "durability/manager.hh"
#include "engine/load.hh"
#include "json/parser.hh"
#include "net/wire.hh"
#include "nobench/generator.hh"
#include "sql/run.hh"

using namespace dvp;

namespace
{

// ---------------------------------------------------------------------
// Small utilities: arguments, files, clock, JSON output.
// ---------------------------------------------------------------------

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "pbtool: %s\n", msg.c_str());
    std::exit(1);
}

struct Args
{
    std::map<std::string, std::string> kv;

    std::string str(const std::string &k) const
    {
        auto it = kv.find(k);
        if (it == kv.end())
            die("missing --" + k);
        return it->second;
    }
    std::string str(const std::string &k, const std::string &d) const
    {
        auto it = kv.find(k);
        return it == kv.end() ? d : it->second;
    }
    uint64_t num(const std::string &k) const
    {
        return std::strtoull(str(k).c_str(), nullptr, 10);
    }
    uint64_t num(const std::string &k, uint64_t d) const
    {
        auto it = kv.find(k);
        return it == kv.end() ? d
                              : std::strtoull(it->second.c_str(),
                                              nullptr, 10);
    }
    double real(const std::string &k) const
    {
        return std::strtod(str(k).c_str(), nullptr);
    }
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    for (int i = first; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            die("bad argument '" + k + "'");
        a.kv[k.substr(2)] = argv[++i];
    }
    return a;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot open '" + path + "'");
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out)
        die("cannot write '" + path + "'");
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Minimal JSON object writer: keys in insertion order. */
class Json
{
  public:
    Json &num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(k, buf);
    }
    Json &count(const std::string &k, uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &boolean(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Json &list(const std::string &k, const std::vector<double> &v)
    {
        std::string s = "[";
        char buf[64];
        for (size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", v[i]);
            s += buf;
        }
        return raw(k, s + "]");
    }
    Json &raw(const std::string &k, const std::string &v)
    {
        body += (body.empty() ? "" : ",") + quote(k) + ":" + v;
        return *this;
    }
    std::string text() const { return "{" + body + "}"; }

    static std::string quote(const std::string &s)
    {
        std::string o = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                o += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                continue;
            o += c;
        }
        return o + "\"";
    }

  private:
    std::string body;
};

// ---------------------------------------------------------------------
// Spans: kept in memory, written out at the end (self times are derived
// from them by run.py).
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    uint64_t start = 0;
    uint64_t end = 0;
    int64_t parent = -1; ///< index into the same span list
    uint64_t req = 0;    ///< request id shared by one request's spans
};

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    /** Open a span; returns its index (or -1 when tracing is off). */
    int64_t open(const char *name, int64_t parent, uint64_t req)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, nowNs(), 0, parent, req});
        return static_cast<int64_t>(spans_.size() - 1);
    }
    void close(int64_t idx)
    {
        if (idx >= 0)
            spans_[static_cast<size_t>(idx)].end = nowNs();
    }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    std::vector<Span> spans_;
};

/**
 * Spans of several logs as one JSON list [name, start_us, end_us,
 * parent, request]; parents are re-based into the joint index space.
 */
std::string
spansJson(const std::vector<const SpanLog *> &logs, uint64_t epoch)
{
    std::string s = "[";
    int64_t base = 0;
    for (const SpanLog *log : logs) {
        for (const Span &sp : log->spans()) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s[\"%s\",%.3f,%.3f,%lld,%llu]",
                          s.size() > 1 ? "," : "", sp.name.c_str(),
                          (sp.start - epoch) / 1e3,
                          (sp.end - epoch) / 1e3,
                          static_cast<long long>(
                              sp.parent < 0 ? -1 : sp.parent + base),
                          static_cast<unsigned long long>(sp.req));
            s += buf;
        }
        base += static_cast<int64_t>(log->spans().size());
    }
    return s + "]";
}

// ---------------------------------------------------------------------
// CPU steal.  The host runs other guests on this machine's cores; a
// stretch in which the hypervisor took a large share of the CPU
// measures the neighbours, not dvpd.  Timed windows log the steal per
// slice so that run.py can leave stolen slices out, and run until they
// hold enough clean time.
// ---------------------------------------------------------------------

constexpr double kCleanStealPct = 3.0;
constexpr uint64_t kSliceNs = 250'000'000;
constexpr double kMaxWindowFactor = 1.25;///< longest window / --seconds

class StealLog
{
  public:
    StealLog() : last_(read()), at_(nowNs()) {}

    /** Close the slice since the previous call. */
    void sample()
    {
        auto cur = read();
        uint64_t now = nowNs();
        uint64_t total = cur.second - last_.second;
        double pct =
            total ? 100.0 * static_cast<double>(cur.first - last_.first) /
                        static_cast<double>(total)
                  : 0.0;
        slices_.push_back({at_, now, pct});
        if (pct < kCleanStealPct)
            clean_ns_ += now - at_;
        last_ = cur;
        at_ = now;
    }

    /** Sample when the current slice is due. */
    void tick()
    {
        if (nowNs() - at_ >= kSliceNs)
            sample();
    }

    /** Has the window run long enough, given @p seconds wanted? */
    bool enough(uint64_t t0, double seconds) const
    {
        double el = (nowNs() - t0) / 1e9;
        return el >= seconds && (clean_ns_ / 1e9 >= seconds ||
                                 el >= kMaxWindowFactor * seconds);
    }

    /** [[start_ms, end_ms, steal_pct], ...] relative to @p epoch. */
    std::string json(uint64_t epoch) const
    {
        std::string s = "[";
        for (const Slice &sl : slices_) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%s[%.3f,%.3f,%.2f]",
                          s.size() > 1 ? "," : "",
                          (sl.start - epoch) / 1e6, (sl.end - epoch) / 1e6,
                          sl.pct);
            s += buf;
        }
        return s + "]";
    }

  private:
    struct Slice
    {
        uint64_t start, end;
        double pct;
    };

    /** {steal, total} jiffies over all CPUs, from /proc/stat. */
    static std::pair<uint64_t, uint64_t> read()
    {
        std::ifstream in("/proc/stat");
        std::string cpu;
        uint64_t v[8] = {};
        in >> cpu;
        uint64_t total = 0;
        for (uint64_t &x : v) {
            in >> x;
            total += x;
        }
        return {v[7], total};
    }

    std::pair<uint64_t, uint64_t> last_;
    uint64_t at_;
    uint64_t clean_ns_ = 0;
    std::vector<Slice> slices_;
};

// ---------------------------------------------------------------------
// Content hash of a decoded response.  Every access to the decoded
// wire result goes through rowOid()/rowCells(), so a change to the
// client's result type touches only these lines.
// ---------------------------------------------------------------------

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t
fnv(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
cellHash(uint64_t h, const net::Cell &c)
{
    uint8_t kind = static_cast<uint8_t>(c.kind);
    h = fnv(h, &kind, 1);
    if (c.kind == net::Cell::Kind::Int)
        h = fnv(h, &c.i, sizeof(c.i));
    else if (c.kind == net::Cell::Kind::Str) {
        uint64_t n = c.s.size();
        h = fnv(h, &n, sizeof(n));
        h = fnv(h, c.s.data(), c.s.size());
    }
    return h;
}

size_t
rowCount(const client::Result &r)
{
    return r.rows.size();
}

int64_t
rowOid(const client::Result &r, size_t i)
{
    return i < r.oids.size() ? r.oids[i] : -1;
}

const std::vector<net::Cell> &
rowCells(const client::Result &r, size_t i)
{
    return r.rows[i];
}

/** Hash of one row: its oid and every cell, in order. */
uint64_t
rowHash(const client::Result &r, size_t i)
{
    int64_t oid = rowOid(r, i);
    uint64_t h = fnv(kFnvBasis, &oid, sizeof(oid));
    for (const net::Cell &c : rowCells(r, i))
        h = cellHash(h, c);
    return mix(h);
}

/** Row count plus an order-independent (multiset) content hash. */
struct Digest
{
    uint64_t rows = 0;
    uint64_t hash = 0;
    bool operator==(const Digest &) const = default;
};

Digest
contentDigest(const client::Result &r)
{
    Digest d;
    d.rows = rowCount(r);
    uint64_t h = kFnvBasis;
    for (const std::string &c : r.columns)
        h = fnv(h, c.data(), c.size() + 1);
    d.hash = mix(h ^ d.rows);
    for (size_t i = 0; i < d.rows; ++i)
        d.hash += rowHash(r, i);
    return d;
}

/**
 * Rows keyed for snapshot-consistency checks under concurrent INSERTs.
 * key is the largest oid the row depends on (row oid; max of the two
 * oids for a join), so a read that saw documents [0, V) returns exactly
 * the final-state rows with key < V.  Aggregate rows instead carry
 * key = count and h = hash of the group cell.
 */
struct KeyedRow
{
    int64_t key = 0;
    uint64_t h = 0;
    bool operator<(const KeyedRow &o) const
    {
        return key != o.key ? key < o.key : h < o.h;
    }
    bool operator==(const KeyedRow &) const = default;
};

enum class Shape { Rows, Join, Aggregate };

Shape
shapeOf(const client::Result &r)
{
    if (r.columns.size() == 2 && r.columns[0] == "group")
        return Shape::Aggregate;
    if (r.columns.size() == 2 && r.columns[0] == "left oid")
        return Shape::Join;
    return Shape::Rows;
}

std::vector<KeyedRow>
keyedRows(const client::Result &r, Shape shape)
{
    std::vector<KeyedRow> out;
    out.reserve(rowCount(r));
    for (size_t i = 0; i < rowCount(r); ++i) {
        const std::vector<net::Cell> &cells = rowCells(r, i);
        KeyedRow k;
        if (shape == Shape::Aggregate) {
            k.key = cells.size() > 1 ? cells[1].i : 0;
            k.h = mix(cellHash(kFnvBasis, cells[0]));
        } else {
            k.h = rowHash(r, i);
            k.key = rowOid(r, i);
            if (shape == Shape::Join)
                for (const net::Cell &c : cells)
                    k.key = std::max(k.key, c.i);
        }
        out.push_back(k);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Is @p got the final state @p fin cut at some document count V in
 * [@p vlo, @p vhi]?  For row shapes: got == {f in fin : f.key < V}.
 * For aggregates: every group count lies between its count in @p base
 * (the pre-write state) and in @p fin.
 */
bool
consistentCut(const std::vector<KeyedRow> &got,
              const std::vector<KeyedRow> &fin,
              const std::vector<KeyedRow> &base, Shape shape,
              int64_t vlo, int64_t vhi)
{
    if (shape == Shape::Aggregate) {
        std::map<uint64_t, std::pair<int64_t, int64_t>> range;
        for (const KeyedRow &b : base)
            range[b.h].first = b.key;
        for (const KeyedRow &f : fin)
            range[f.h].second = f.key;
        for (const KeyedRow &g : got) {
            auto it = range.find(g.h);
            if (it == range.end() || g.key < it->second.first ||
                g.key > it->second.second)
                return false;
        }
        return got.size() >= base.size() && got.size() <= fin.size();
    }
    size_t n = got.size();
    if (n > fin.size() || !std::equal(got.begin(), got.end(), fin.begin()))
        return false;
    // Feasible V: above the last row kept, at most the first row cut.
    int64_t lo = n ? fin[n - 1].key + 1 : 0;
    int64_t hi = n < fin.size() ? fin[n].key : INT64_MAX;
    return std::max(lo, vlo) <= std::min(hi, vhi);
}

// ---------------------------------------------------------------------
// Wire helpers.
// ---------------------------------------------------------------------

client::Client
connectOrDie(uint16_t port)
{
    client::Client c;
    std::string err = c.connect("127.0.0.1", port, "perfbench", 10000);
    if (!err.empty())
        die("connect: " + err);
    return c;
}

std::map<std::string, uint64_t>
serverStats(client::Client &c)
{
    client::Stats s = c.stats();
    if (!s.ok)
        die("STATS: " + s.error);
    std::map<std::string, uint64_t> m;
    for (const auto &[k, v] : s.entries)
        m[k] = v;
    return m;
}

/** Statement failures by kind, shared by every subcommand. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t errors = 0;
    uint64_t busy = 0;
    uint64_t mismatches = 0;
    std::vector<std::string> examples;

    uint64_t failed() const { return errors + busy + mismatches; }
    void note(const std::string &what)
    {
        if (examples.size() < 5)
            examples.push_back(what);
    }
    void add(const Tally &o)
    {
        attempted += o.attempted;
        errors += o.errors;
        busy += o.busy;
        mismatches += o.mismatches;
        for (const std::string &e : o.examples)
            note(e);
    }
    void write(Json &j) const
    {
        j.count("attempted", attempted)
            .count("failed", failed())
            .count("errors", errors)
            .count("busy", busy)
            .count("mismatches", mismatches);
        std::string ex = "[";
        for (size_t i = 0; i < examples.size(); ++i) {
            if (i)
                ex += ',';
            ex += Json::quote(examples[i]);
        }
        j.raw("failure_examples", ex + "]");
    }
};

/** Classify a failed statement into @p t. */
void
noteFailure(Tally &t, const client::Result &r, const std::string &stmt)
{
    if (r.busy())
        ++t.busy;
    else
        ++t.errors;
    t.note(std::string(net::errorCodeName(r.errorCode)) + ": " +
           r.error + " [" + stmt.substr(0, 60) + "]");
}

/** Per-statement references: the first answer, checked against later. */
class References
{
  public:
    explicit References(size_t n) : refs(n) {}

    /** @return false on mismatch with an earlier answer. */
    bool check(size_t idx, const Digest &d)
    {
        std::lock_guard<std::mutex> g(mu);
        auto &ref = refs[idx];
        if (!ref) {
            ref = d;
            return true;
        }
        return *ref == d;
    }
    const std::vector<std::optional<Digest>> &all() const { return refs; }

  private:
    std::mutex mu;
    std::vector<std::optional<Digest>> refs;
};

/** What one connection of a closed-loop window recorded. */
struct WindowLane
{
    Tally tally;
    std::vector<double> latencyMs;
    std::vector<uint64_t> doneNs; ///< completion time of each latency
    std::vector<double> execMs;
    std::vector<double> encodeMs;
    std::vector<double> decodeMs;
    std::vector<double> resultBytes;
    SpanLog spans{false};
};

/**
 * Closed loop: @p lanes.size() connections, each sending the next
 * statement of the shared cycle once its previous reply arrived, until
 * @p stop() says so.  Every answer is checked against @p refs.  With
 * @p traced, each request also re-encodes and decodes its result body
 * with the wire codec and records spans.
 */
void
closedLoop(const std::vector<client::Client *> &conns,
           std::vector<WindowLane> &lanes,
           const std::vector<std::string> &stmts, References &refs,
           std::atomic<uint64_t> &cursor, std::atomic<uint64_t> &done,
           const std::function<bool()> &stop, bool traced)
{
    std::vector<std::thread> threads;
    for (size_t w = 0; w < conns.size(); ++w) {
        threads.emplace_back([&, w] {
            client::Client &c = *conns[w];
            WindowLane &lane = lanes[w];
            lane.spans = SpanLog(traced);
            while (!stop()) {
                uint64_t req = cursor.fetch_add(1);
                size_t idx = req % stmts.size();
                int64_t root = lane.spans.open("wire.request", -1, req);
                int64_t q = lane.spans.open("client.query", root, req);
                uint64_t t0 = nowNs();
                client::Result r = c.query(stmts[idx]);
                uint64_t t1 = nowNs();
                lane.spans.close(q);
                ++lane.tally.attempted;
                if (!r.ok) {
                    noteFailure(lane.tally, r, stmts[idx]);
                    lane.spans.close(root);
                    if (!c.connected())
                        return;
                    continue;
                }
                int64_t chk = lane.spans.open("bench.check", root, req);
                if (!refs.check(idx, contentDigest(r))) {
                    ++lane.tally.mismatches;
                    lane.tally.note("content mismatch [" + stmts[idx] +
                                    "]");
                }
                lane.spans.close(chk);
                lane.latencyMs.push_back((t1 - t0) / 1e6);
                lane.doneNs.push_back(t1);
                lane.execMs.push_back(r.execNs / 1e6);
                if (traced) {
                    net::ResultBody body;
                    body.columns = std::move(r.columns);
                    body.oids = std::move(r.oids);
                    body.rows = std::move(r.rows);
                    body.digest = r.digest;
                    body.checksum = r.checksum;
                    body.execNs = r.execNs;
                    body.hasTraceId = r.hasTraceId;
                    body.traceId = r.traceId;
                    body.opStats = std::move(r.opStats);
                    int64_t e = lane.spans.open("net.encode", root, req);
                    uint64_t e0 = nowNs();
                    std::string payload =
                        net::encodeResult(body, c.featureLevel());
                    uint64_t e1 = nowNs();
                    lane.spans.close(e);
                    int64_t d = lane.spans.open("net.decode", root, req);
                    net::ResultBody back;
                    bool ok = net::decodeResult(payload, back);
                    uint64_t d1 = nowNs();
                    lane.spans.close(d);
                    if (!ok) {
                        ++lane.tally.mismatches;
                        lane.tally.note("re-decode failed");
                    }
                    lane.encodeMs.push_back((e1 - e0) / 1e6);
                    lane.decodeMs.push_back((d1 - e1) / 1e6);
                    lane.resultBytes.push_back(
                        static_cast<double>(payload.size()));
                }
                lane.spans.close(root);
                done.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

std::vector<double>
concat(const std::vector<WindowLane> &lanes,
       std::vector<double> WindowLane::*field)
{
    std::vector<double> out;
    for (const WindowLane &l : lanes)
        out.insert(out.end(), (l.*field).begin(), (l.*field).end());
    return out;
}

std::vector<double>
doneMs(const std::vector<WindowLane> &lanes, uint64_t epoch)
{
    std::vector<double> out;
    for (const WindowLane &l : lanes)
        for (uint64_t t : l.doneNs)
            out.push_back((t - epoch) / 1e6);
    return out;
}

/**
 * Untimed warm-up: run the statement cycle until at least 250
 * statements ran and the layout epoch and repartition count held still
 * for the last 150 statements and 1.5 s (the first ~100 statements of
 * a fresh server run 30-40 % slower, and a repartition lands after
 * the first 100-query detector window).
 */
struct WarmupResult
{
    uint64_t statements = 0;
    double seconds = 0;
    bool capped = false;
    Tally tally;
};

WarmupResult
warmup(uint16_t port, const std::vector<client::Client *> &conns,
       const std::vector<std::string> &stmts, References &refs)
{
    const uint64_t minStmts = 250;
    const uint64_t stableStmts = 150;
    const double stableSec = 1.5;
    const double maxSec = 60;
    client::Client sc = connectOrDie(port);
    std::atomic<uint64_t> cursor{0}, done{0};
    std::atomic<bool> stop{false};
    std::vector<WindowLane> lanes(conns.size());
    uint64_t t0 = nowNs();
    std::thread loop([&] {
        closedLoop(conns, lanes, stmts, refs, cursor, done,
                   [&] { return stop.load(); }, false);
    });
    auto state = [&] {
        auto s = serverStats(sc);
        return std::make_pair(s["layout_epoch"], s["repartitions_total"]);
    };
    auto last = state();
    uint64_t changed_at = 0;
    uint64_t changed_ns = t0;
    WarmupResult w;
    while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        uint64_t n = done.load();
        auto cur = state();
        if (cur != last) {
            last = cur;
            changed_at = n;
            changed_ns = nowNs();
        }
        double el = (nowNs() - t0) / 1e9;
        if (n >= minStmts && n >= stmts.size() &&
            n - changed_at >= stableStmts &&
            (nowNs() - changed_ns) / 1e9 >= stableSec)
            break;
        if (el > maxSec) {
            w.capped = true;
            break;
        }
    }
    stop = true;
    loop.join();
    w.statements = done.load();
    w.seconds = (nowNs() - t0) / 1e9;
    for (const WindowLane &l : lanes)
        w.tally.add(l.tally);
    sc.close();
    return w;
}

/** One timed closed-loop window. */
struct Window
{
    std::vector<WindowLane> lanes;
    StealLog steal;
    double seconds = 0;
    uint64_t completed = 0;
    std::map<std::string, uint64_t> before, after;
};

Window
timedWindow(client::Client &sc, const std::vector<client::Client *> &conns,
            const std::vector<std::string> &stmts, References &refs,
            double seconds, bool traced)
{
    Window w;
    w.lanes.resize(conns.size());
    w.before = serverStats(sc);
    std::atomic<uint64_t> cursor{0}, done{0};
    std::atomic<bool> stop{false};
    uint64_t t0 = nowNs();
    std::thread loop([&] {
        closedLoop(conns, w.lanes, stmts, refs, cursor, done,
                   [&] { return stop.load(); }, traced);
    });
    while (!w.steal.enough(t0, seconds)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        w.steal.tick();
    }
    w.steal.sample();
    stop = true;
    loop.join();
    w.seconds = (nowNs() - t0) / 1e9;
    w.completed = done.load();
    w.after = serverStats(sc);
    return w;
}

std::string
windowJson(const Window &w, uint64_t epoch)
{
    Json j;
    Tally t;
    for (const WindowLane &l : w.lanes)
        t.add(l.tally);
    t.write(j);
    auto delta = [&](const char *k) {
        auto b = w.before.find(k), a = w.after.find(k);
        return (a == w.after.end() ? 0 : a->second) -
               (b == w.before.end() ? 0 : b->second);
    };
    j.num("seconds", w.seconds)
        .count("completed", w.completed)
        .count("repartitions", delta("repartitions_total"))
        .count("epoch_changes", delta("layout_epoch"))
        .count("checkpoints", delta("checkpoints_total"))
        .count("server_rejects", delta("rejects_total"))
        .list("latency_ms", concat(w.lanes, &WindowLane::latencyMs))
        .list("done_ms", doneMs(w.lanes, epoch))
        .raw("steal", w.steal.json(epoch))
        .list("exec_ms", concat(w.lanes, &WindowLane::execMs))
        .list("encode_ms", concat(w.lanes, &WindowLane::encodeMs))
        .list("decode_ms", concat(w.lanes, &WindowLane::decodeMs))
        .list("result_bytes", concat(w.lanes, &WindowLane::resultBytes));
    std::vector<const SpanLog *> logs;
    for (const WindowLane &l : w.lanes)
        logs.push_back(&l.spans);
    j.raw("spans", spansJson(logs, epoch));
    return j.text();
}

std::string
digestsJson(const std::vector<std::optional<Digest>> &refs)
{
    std::string s = "[";
    for (size_t i = 0; i < refs.size(); ++i) {
        s += i ? "," : "";
        if (refs[i])
            s += "[" + std::to_string(refs[i]->rows) + ",\"" +
                 std::to_string(refs[i]->hash) + "\"]";
        else
            s += "null";
    }
    return s + "]";
}

// ---------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------

int
cmdGen(const Args &a)
{
    nobench::Config cfg;
    cfg.seed = a.num("seed");
    cfg.numDocs = a.num("docs");
    uint64_t extra = a.num("extra");
    std::string text = nobench::generateJsonLines(cfg, cfg.numDocs + extra);
    if (text.find('\'') != std::string::npos)
        die("generated documents contain a single quote");
    size_t cut = 0;
    for (uint64_t i = 0; i < cfg.numDocs; ++i)
        cut = text.find('\n', cut) + 1;
    writeFile(a.str("load-out"), text.substr(0, cut));
    writeFile(a.str("extra-out"), text.substr(cut));
    Json j;
    j.count("load_bytes", cut).count("extra_bytes", text.size() - cut);
    writeFile(a.str("out"), j.text());
    return 0;
}

int
cmdRead(const Args &a)
{
    auto port = static_cast<uint16_t>(a.num("port"));
    std::vector<std::string> stmts = readLines(a.str("stmts"));
    size_t nconn = a.num("conns");
    double seconds = a.real("seconds");
    bool traced = a.num("trace", 0) != 0;
    uint64_t epoch = nowNs();

    std::vector<client::Client> clients;
    for (size_t i = 0; i < nconn; ++i)
        clients.push_back(connectOrDie(port));
    std::vector<client::Client *> conns;
    for (client::Client &c : clients)
        conns.push_back(&c);
    client::Client sc = connectOrDie(port);
    References refs(stmts.size());

    WarmupResult wu = warmup(port, conns, stmts, refs);
    // A traced run splits its time between an untraced and a traced
    // window, so it takes as long as an untraced one.
    if (traced)
        seconds /= 2;
    Window plain = timedWindow(sc, conns, stmts, refs, seconds, false);

    Json j;
    Tally all = wu.tally;
    j.count("warmup_statements", wu.statements)
        .num("warmup_seconds", wu.seconds)
        .boolean("warmup_capped", wu.capped)
        .raw("plain", windowJson(plain, epoch));
    for (const WindowLane &l : plain.lanes)
        all.add(l.tally);
    if (traced) {
        Window tw = timedWindow(sc, conns, stmts, refs, seconds, true);
        j.raw("traced", windowJson(tw, epoch));
        for (const WindowLane &l : tw.lanes)
            all.add(l.tally);
    }
    Json tj;
    all.write(tj);
    j.raw("total", tj.text()).raw("refs", digestsJson(refs.all()));
    if (a.kv.count("refs-out"))
        writeFile(a.str("refs-out"), digestsJson(refs.all()));
    for (client::Client &c : clients)
        c.close();
    sc.close();
    writeFile(a.str("out"), j.text());
    return 0;
}

/** A stored concurrent read, checked once the final state is known. */
struct StoredRead
{
    size_t idx = 0;
    int64_t vlo = 0, vhi = 0;
    std::vector<KeyedRow> rows;
};

int
cmdIngest(const Args &a)
{
    auto port = static_cast<uint16_t>(a.num("port"));
    std::vector<std::string> stmts = readLines(a.str("stmts"));
    std::vector<std::string> docs = readLines(a.str("inserts"));
    auto base_docs = static_cast<int64_t>(a.num("base-docs"));
    size_t batch = a.num("batch");
    double seconds = a.real("seconds");
    bool traced = a.num("trace", 0) != 0;
    uint64_t epoch = nowNs();

    std::vector<std::string> inserts;
    for (size_t i = 0; i < docs.size(); i += batch) {
        std::string s = "INSERT INTO t VALUES ";
        for (size_t k = i; k < std::min(docs.size(), i + batch); ++k)
            s += (k > i ? ", ('" : "('") + docs[k] + "')";
        inserts.push_back(std::move(s));
    }

    // One reading and one writing connection; the warm-up uses both.
    client::Client rconn = connectOrDie(port);
    client::Client wconn = connectOrDie(port);
    client::Client sc = connectOrDie(port);

    // Warm-up and base references: the read-only state before writes.
    // --reader 0 makes this a write-only burst (no warm-up either).
    bool reader = a.num("reader", 1) != 0;
    References base_refs(stmts.size());
    WarmupResult wu;
    if (reader)
        wu = warmup(port, {&rconn, &wconn}, stmts, base_refs);
    Tally rt = wu.tally, wt;

    // Traced: the reader's untraced and traced twin windows, before
    // the writer starts, give the per-request split and the tracing
    // overhead on this workload's read mix.
    Json j;
    if (reader && traced) {
        double half = seconds / 4;
        Window plain = timedWindow(sc, {&rconn}, stmts, base_refs, half,
                                   false);
        Window tw = timedWindow(sc, {&rconn}, stmts, base_refs, half, true);
        j.raw("plain", windowJson(plain, epoch))
            .raw("traced", windowJson(tw, epoch));
        for (const Window *w : {&plain, &tw})
            for (const WindowLane &l : w->lanes)
                rt.add(l.tally);
    }
    std::vector<std::vector<KeyedRow>> base_rows(stmts.size());
    std::vector<std::optional<Digest>> base_digest(stmts.size());
    std::vector<Shape> shapes(stmts.size(), Shape::Rows);
    for (size_t i = 0; i < stmts.size(); ++i) {
        client::Result r = rconn.query(stmts[i]);
        ++rt.attempted;
        if (!r.ok) {
            noteFailure(rt, r, stmts[i]);
            continue;
        }
        shapes[i] = shapeOf(r);
        base_rows[i] = keyedRows(r, shapes[i]);
        base_digest[i] = contentDigest(r);
        if (reader && !base_refs.check(i, *base_digest[i])) {
            ++rt.mismatches;
            rt.note("content mismatch [" + stmts[i] + "]");
        }
    }

    std::map<std::string, uint64_t> before = serverStats(sc);
    std::atomic<int64_t> sent{0}, acked{0};
    std::atomic<bool> writer_done{false};
    std::vector<double> insert_ms, read_ms;
    SpanLog wspans(traced), rspans(traced);
    uint64_t t0 = nowNs(), writer_end = 0;

    std::thread writer([&] {
        size_t next_doc = 0;
        for (size_t b = 0; b < inserts.size(); ++b) {
            size_t n = std::min(batch, docs.size() - next_doc);
            sent.fetch_add(static_cast<int64_t>(n));
            int64_t sp = wspans.open("client.insert", -1, b);
            uint64_t s0 = nowNs();
            client::Result r = wconn.query(inserts[b]);
            uint64_t s1 = nowNs();
            wspans.close(sp);
            ++wt.attempted;
            if (!r.ok) {
                noteFailure(wt, r, "INSERT batch " + std::to_string(b));
                if (!wconn.connected())
                    break;
            } else {
                acked.fetch_add(static_cast<int64_t>(n));
                insert_ms.push_back((s1 - s0) / 1e6);
            }
            next_doc += n;
        }
        writer_end = nowNs();
        writer_done = true;
    });

    std::vector<StoredRead> stored;
    std::vector<double> read_done_ms;
    StealLog steal;
    for (uint64_t req = 0;
         reader && (!writer_done.load() || !steal.enough(t0, seconds));
         ++req) {
        steal.tick();
        size_t idx = req % stmts.size();
        StoredRead sr;
        sr.idx = idx;
        sr.vlo = base_docs + acked.load();
        int64_t sp = rspans.open("client.query", -1, req);
        uint64_t s0 = nowNs();
        client::Result r = rconn.query(stmts[idx]);
        uint64_t s1 = nowNs();
        rspans.close(sp);
        sr.vhi = base_docs + sent.load();
        ++rt.attempted;
        if (!r.ok) {
            noteFailure(rt, r, stmts[idx]);
            if (!rconn.connected())
                break;
            continue;
        }
        read_ms.push_back((s1 - s0) / 1e6);
        read_done_ms.push_back((s1 - epoch) / 1e6);
        sr.rows = keyedRows(r, shapes[idx]);
        stored.push_back(std::move(sr));
    }
    writer.join();
    steal.sample();
    double read_seconds = (nowNs() - t0) / 1e9;
    double write_seconds = (writer_end - t0) / 1e9;
    std::map<std::string, uint64_t> after = serverStats(sc);

    // Final state: one more answer per statement, then every stored
    // read must be that state cut at a document count it could see.
    std::vector<std::vector<KeyedRow>> fin(stmts.size());
    std::vector<std::optional<Digest>> fin_digest(stmts.size());
    for (size_t i = 0; i < stmts.size(); ++i) {
        client::Result r = rconn.query(stmts[i]);
        ++rt.attempted;
        if (!r.ok) {
            noteFailure(rt, r, stmts[i]);
            continue;
        }
        fin[i] = keyedRows(r, shapes[i]);
        fin_digest[i] = contentDigest(r);
    }
    int64_t all = base_docs + acked.load();
    for (size_t i = 0; i < stmts.size(); ++i)
        if (!consistentCut(base_rows[i], fin[i], base_rows[i], shapes[i],
                           base_docs, base_docs)) {
            ++rt.mismatches;
            rt.note("base rows not a cut of the final state [" +
                    stmts[i] + "]");
        }
    for (const StoredRead &sr : stored)
        if (!consistentCut(sr.rows, fin[sr.idx], base_rows[sr.idx],
                           shapes[sr.idx], sr.vlo,
                           std::min(sr.vhi, all))) {
            ++rt.mismatches;
            rt.note("read not a consistent cut [" + stmts[sr.idx] + "]");
        }
    writeFile(a.str("refs-out"), digestsJson(fin_digest));

    auto delta = [&](const char *k) { return after[k] - before[k]; };
    Json rj, wj;
    rt.write(rj);
    wt.write(wj);
    Tally total = rt;
    total.add(wt);
    Json tj;
    total.write(tj);
    j.count("warmup_statements", wu.statements)
        .num("warmup_seconds", wu.seconds)
        .boolean("warmup_capped", wu.capped)
        .raw("reads", rj.text())
        .raw("writes", wj.text())
        .raw("total", tj.text())
        .count("acked_docs", static_cast<uint64_t>(acked.load()))
        .num("read_seconds", read_seconds)
        .num("write_seconds", write_seconds)
        .count("reads_checked", stored.size())
        .count("repartitions", delta("repartitions_total"))
        .count("checkpoints", delta("checkpoints_total"))
        .count("epoch_changes", delta("layout_epoch"))
        .count("server_rejects", delta("rejects_total"))
        .count("wal_bytes", delta("wal_bytes_total"))
        .list("insert_ms", insert_ms)
        .list("latency_ms", read_ms)
        .list("done_ms", read_done_ms)
        .raw("steal", steal.json(epoch))
        .raw("refs", digestsJson(base_digest));
    std::vector<const SpanLog *> logs{&wspans, &rspans};
    j.raw("spans", spansJson(logs, epoch));
    rconn.close();
    wconn.close();
    sc.close();
    writeFile(a.str("out"), j.text());
    return 0;
}

/** Parse a digests file written by digestsJson (tiny fixed format). */
std::vector<std::optional<Digest>>
readDigests(const std::string &path)
{
    std::string s = readFile(path);
    std::vector<std::optional<Digest>> out;
    size_t i = 1;
    while (i < s.size() && s[i] != ']') {
        if (s.compare(i, 4, "null") == 0) {
            out.emplace_back();
            i += 4;
        } else {
            Digest d;
            char *end = nullptr;
            d.rows = std::strtoull(s.c_str() + i + 1, &end, 10);
            i = static_cast<size_t>(end - s.c_str()) + 2;
            d.hash = std::strtoull(s.c_str() + i, &end, 10);
            i = static_cast<size_t>(end - s.c_str()) + 2;
            out.push_back(d);
        }
        if (s[i] == ',')
            ++i;
    }
    return out;
}

int
cmdVerify(const Args &a)
{
    auto port = static_cast<uint16_t>(a.num("port"));
    std::vector<std::string> stmts = readLines(a.str("stmts"));
    std::vector<std::optional<Digest>> refs = readDigests(a.str("refs"));
    std::vector<std::string> docs = readLines(a.str("inserts"));
    auto base_docs = static_cast<int64_t>(a.num("base-docs"));
    uint64_t acked = a.num("acked");
    if (refs.size() != stmts.size())
        die("reference count does not match the statements");

    client::Client c = connectOrDie(port);
    Tally t;
    for (size_t i = 0; i < stmts.size(); ++i) {
        client::Result r = c.query(stmts[i]);
        ++t.attempted;
        if (!r.ok) {
            noteFailure(t, r, stmts[i]);
        } else if (!refs[i] || !(contentDigest(r) == *refs[i])) {
            ++t.mismatches;
            t.note("after restart differs [" + stmts[i] + "]");
        }
    }

    // Every acknowledged document, field by field.
    client::Result r = c.query("SELECT str1, num FROM t");
    ++t.attempted;
    uint64_t found = 0;
    if (!r.ok) {
        noteFailure(t, r, "SELECT str1, num FROM t");
    } else {
        std::map<int64_t, size_t> by_oid;
        for (size_t i = 0; i < rowCount(r); ++i)
            by_oid[rowOid(r, i)] = i;
        for (uint64_t k = 0; k < acked && k < docs.size(); ++k) {
            json::ParseResult p = json::parse(docs[k]);
            auto it = by_oid.find(base_docs + static_cast<int64_t>(k));
            const json::JsonValue *s1 = p.ok ? p.value.find("str1") : nullptr;
            const json::JsonValue *nm = p.ok ? p.value.find("num") : nullptr;
            if (it == by_oid.end() || !s1 || !nm)
                continue;
            const std::vector<net::Cell> &cells = rowCells(r, it->second);
            if (cells.size() == 2 && cells[0].s == s1->asString() &&
                cells[1].i == nm->asInt())
                ++found;
        }
        if (found != acked) {
            ++t.mismatches;
            t.note("acknowledged documents readable: " +
                   std::to_string(found) + " of " + std::to_string(acked));
        }
    }
    uint64_t server_docs = serverStats(c)["docs"];
    if (server_docs != static_cast<uint64_t>(base_docs) + acked) {
        ++t.mismatches;
        t.note("server holds " + std::to_string(server_docs) + " docs");
    }
    c.close();
    Json j;
    t.write(j);
    j.count("acked_readable", found);
    writeFile(a.str("out"), j.text());
    return 0;
}

// -- in-process layer probe --------------------------------------------

/** Engine parameters as dvpd sets them (background repartitioning). */
adaptive::Params
engineParams(size_t threads)
{
    adaptive::Params p;
    p.background = true;
    p.threads = threads;
    return p;
}

std::vector<std::vector<json::FlatAttr>>
flatDocs(const std::string &text)
{
    std::vector<std::vector<json::FlatAttr>> out;
    engine::LoadOptions opt;
    std::string err = engine::parseNdjsonFlat(
        text, opt, nullptr,
        [&](const std::vector<json::FlatAttr> &d) { out.push_back(d); });
    if (!err.empty())
        die("insert documents: " + err);
    return out;
}

/** Row counts of every statement, one pass, in-process. */
std::vector<double>
rowCounts(adaptive::AdaptiveEngine &eng,
          const std::vector<std::string> &stmts)
{
    std::vector<double> out;
    for (const std::string &s : stmts) {
        sql::RunResult r = sql::runStatement(eng, s);
        if (!r.ok)
            die("in-process statement failed: " + r.error + " [" + s + "]");
        out.push_back(static_cast<double>(r.rows.rowCount()));
    }
    return out;
}

int
cmdProbe(const Args &a)
{
    std::string text = readFile(a.str("load"));
    std::vector<std::string> stmts = readLines(a.str("stmts"));
    const size_t threads = 2; // dvpd --threads
    uint64_t passes = a.num("passes", 0);
    uint64_t loads = a.num("loads", 1);
    uint64_t epoch = nowNs();
    Json j;

    // LOAD, repeated; the last data set is kept.
    engine::LoadOptions lopt;
    lopt.threads = threads;
    lopt.timeStages = passes > 0;
    std::vector<double> load_ms, index_ms, walk_ms, encode_ms;
    engine::DataSet data;
    for (uint64_t i = 0; i < loads; ++i) {
        data = engine::DataSet{};
        engine::LoadStats ls;
        uint64_t t0 = nowNs();
        std::string err = engine::loadNdjson(data, text, lopt, &ls);
        if (!err.empty())
            die("load: " + err);
        load_ms.push_back((nowNs() - t0) / 1e6);
        index_ms.push_back(ls.indexNs / 1e6);
        walk_ms.push_back(ls.walkNs / 1e6);
        encode_ms.push_back(ls.encodeNs / 1e6);
    }
    size_t ndocs = data.docs.size();
    j.count("docs", ndocs)
        .num("user_bytes", static_cast<double>(text.size()))
        .list("load_ms", load_ms)
        .list("index_ms", index_ms)
        .list("walk_ms", walk_ms)
        .list("encode_ms", encode_ms);

    auto eng = std::make_unique<adaptive::AdaptiveEngine>(
        data, std::vector<engine::Query>{}, engineParams(threads));
    {
        adaptive::AuditRecord bind = eng->auditTrail().front();
        j.num("partition_ms", bind.partitionerNs / 1e6)
            .num("build_ms", bind.buildNs / 1e6)
            .count("layout_tables", bind.tables)
            .num("bytes_per_doc",
                 static_cast<double>(eng->snapshot()->bytesUsed()) /
                     static_cast<double>(ndocs));
    }
    j.list("base_rows", rowCounts(*eng, stmts));

    if (passes > 0) {
        // Replay: warm up like the wire run, then time R passes.
        for (size_t i = 0; i < 250; ++i)
            sql::runStatement(*eng, stmts[i % stmts.size()]);
        eng->quiesce();
        uint64_t reparts = eng->adaptation().repartitions;
        SpanLog spans(true);
        std::vector<double> run_ms, exec_ms, plan_us, digest_ms;
        std::vector<double> filter_ms, retrieve_ms, project_ms, join_ms;
        double scanned = 0, touches = 0, blocks = 0, skipped = 0, out = 0;
        for (uint64_t p = 0; p < passes; ++p) {
            double f = 0, r = 0, pj = 0, jn = 0;
            for (size_t i = 0; i < stmts.size(); ++i) {
                uint64_t req = p * stmts.size() + i;
                int64_t root = spans.open("replay.statement", -1, req);
                int64_t s = spans.open("sql.run", root, req);
                uint64_t t0 = nowNs();
                sql::RunResult rr = sql::runStatement(*eng, stmts[i]);
                uint64_t t1 = nowNs();
                spans.close(s);
                if (!rr.ok || !rr.hasStats)
                    die("replay failed: " + rr.error);
                int64_t d = spans.open("engine.digest", root, req);
                uint64_t dg = rr.rows.digest();
                uint64_t t2 = nowNs();
                spans.close(d);
                spans.close(root);
                (void)dg;
                const engine::QueryStats &qs = rr.stats;
                run_ms.push_back((t1 - t0) / 1e6);
                exec_ms.push_back(qs.execNs / 1e6);
                plan_us.push_back(qs.planNs / 1e3);
                digest_ms.push_back((t2 - t1) / 1e6);
                f += qs.filterNs / 1e6;
                r += qs.retrieveNs / 1e6;
                pj += qs.projectNs / 1e6;
                jn += qs.joinNs / 1e6;
                if (p == 0) {
                    scanned += qs.rowsScanned;
                    touches += qs.partitionTouches;
                    blocks += qs.blocksScanned + qs.blocksSkipped;
                    skipped += qs.blocksSkipped;
                    out += qs.rowsOut;
                }
            }
            filter_ms.push_back(f);
            retrieve_ms.push_back(r);
            project_ms.push_back(pj);
            join_ms.push_back(jn);
        }
        eng->quiesce();
        Json rj;
        rj.count("passes", passes)
            .count("statements", stmts.size())
            .count("repartitions",
                   eng->adaptation().repartitions - reparts)
            .list("run_ms", run_ms)
            .list("exec_ms", exec_ms)
            .list("plan_us", plan_us)
            .list("digest_ms", digest_ms)
            .list("pass_filter_ms", filter_ms)
            .list("pass_retrieve_ms", retrieve_ms)
            .list("pass_project_ms", project_ms)
            .list("pass_join_ms", join_ms)
            .num("rows_scanned", scanned)
            .num("partition_touches", touches)
            .num("blocks_total", blocks)
            .num("blocks_skipped", skipped)
            .num("rows_out", out);
        std::vector<const SpanLog *> logs{&spans};
        rj.raw("spans", spansJson(logs, epoch));
        j.raw("replay", rj.text());
    }

    std::string inserts = a.kv.count("inserts") ? readFile(a.str("inserts"))
                                                : std::string();
    std::string dir = a.str("dir", "");
    if (!dir.empty()) {
        // The durable write path on the first --ingest-docs inserted
        // documents: engine ingest with WAL, folds and checkpoints,
        // then recovery of that directory, then the WAL alone.
        size_t batch = a.num("batch");
        std::vector<std::vector<json::FlatAttr>> docs = flatDocs(inserts);
        docs.resize(std::min<size_t>(docs.size(), a.num("ingest-docs")));
        std::vector<std::vector<std::vector<json::FlatAttr>>> batches;
        for (size_t i = 0; i < docs.size(); i += batch)
            batches.emplace_back(
                docs.begin() + static_cast<long>(i),
                docs.begin() +
                    static_cast<long>(std::min(docs.size(), i + batch)));
        Json ij;

        durability::Config dc;
        dc.dir = dir + "/engine";
        dc.fsyncPolicy = durability::FsyncPolicy::Always;
        dc.checkpointWalBytes = a.num("checkpoint-wal-mb") << 20;
        auto mgr = std::make_unique<durability::Manager>(dc);
        engine::DataSet scratch;
        durability::RecoveryInfo ri;
        std::string err = mgr->open(scratch, ri);
        if (!err.empty())
            die("durability open: " + err);
        eng->setDurability(mgr.get());
        std::vector<double> ckpt_ms;
        auto checkpoint = [&] {
            durability::CheckpointResult ck = mgr->checkpointNow();
            if (!ck.ok)
                die("checkpoint: " + ck.error);
            ckpt_ms.push_back(ck.seconds * 1e3);
        };
        checkpoint();
        uint64_t audit0 = eng->auditTrail().back().seq;
        std::vector<double> ingest_ms;
        for (size_t b = 0; b < batches.size(); ++b) {
            uint64_t t0 = nowNs();
            adaptive::IngestAck ack = eng->ingestFlatBatch(batches[b]);
            ingest_ms.push_back((nowNs() - t0) / 1e6);
            if (!ack.walError.empty())
                die("ingest: " + ack.walError);
            if (b + 1 == batches.size() / 2)
                checkpoint();
        }
        eng->quiesce();
        mgr->quiesce();
        std::vector<double> fold_ms;
        for (const adaptive::AuditRecord &rec : eng->auditTrail())
            if (rec.seq > audit0 && rec.deltaFolded > 0)
                fold_ms.push_back((rec.buildNs + rec.swapNs) / 1e6);
        ij.list("ingest_ms", ingest_ms)
            .list("fold_ms", fold_ms)
            .count("checkpoints", mgr->stats().checkpoints)
            .list("checkpoint_ms", ckpt_ms);
        eng.reset();
        mgr.reset();

        // Recovery of that directory: snapshot plus WAL tail.
        durability::Config rc;
        rc.dir = dc.dir;
        rc.checkpointWalBytes = 0;
        durability::Manager again(rc);
        engine::DataSet rec;
        uint64_t t0 = nowNs();
        err = again.open(rec, ri);
        double recover_ms = (nowNs() - t0) / 1e6;
        if (!err.empty())
            die("recover: " + err);
        if (rec.docs.size() != ndocs + docs.size())
            die("recovered " + std::to_string(rec.docs.size()) +
                " documents, expected " +
                std::to_string(ndocs + docs.size()));
        ij.num("recover_ms", recover_ms)
            .count("replayed_records", ri.replayedRecords);

        // The WAL alone: append and group commit per batch.
        durability::Config wc;
        wc.dir = dir + "/wal";
        wc.fsyncPolicy = durability::FsyncPolicy::Always;
        wc.checkpointWalBytes = 0;
        durability::Manager wal(wc);
        err = wal.open(scratch, ri);
        if (!err.empty())
            die("wal open: " + err);
        std::vector<double> append_us, commit_ms;
        for (const auto &b : batches) {
            std::string body = durability::Manager::encodeIngestBody(b);
            uint64_t t0 = nowNs();
            uint64_t lsn = wal.logIngest(body);
            uint64_t t1 = nowNs();
            err = lsn ? wal.commit(lsn) : "append failed";
            uint64_t t2 = nowNs();
            if (!err.empty())
                die("wal: " + err);
            append_us.push_back((t1 - t0) / 1e3);
            commit_ms.push_back((t2 - t1) / 1e6);
        }
        ij.list("append_us", append_us)
            .list("commit_ms", commit_ms)
            .num("wal_bytes_per_doc",
                 static_cast<double>(wal.wal()->bytesAppended()) /
                     static_cast<double>(docs.size()));
        j.raw("ingest", ij.text());
    }
    eng.reset();

    if (!inserts.empty()) {
        // Row counts once every inserted document is in: one LOAD of
        // the base and the inserts together (the oids INSERT assigns).
        engine::DataSet all;
        std::string err = engine::loadNdjson(all, text + inserts, lopt);
        if (!err.empty())
            die("load: " + err);
        adaptive::AdaptiveEngine fin(all, {}, engineParams(threads));
        j.list("final_rows", rowCounts(fin, stmts));
    }
    writeFile(a.str("out"), j.text());
    return 0;
}

// -- self-test ---------------------------------------------------------

int
cmdSelftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    client::Result r;
    r.ok = true;
    r.columns = {"oid", "str1", "num"};
    for (int i = 0; i < 50; ++i) {
        r.oids.push_back(i);
        net::Cell s, n, z;
        s.kind = net::Cell::Kind::Str;
        s.s = "str1_" + std::to_string(i);
        n.kind = net::Cell::Kind::Int;
        n.i = i * 7;
        r.rows.push_back({s, n, z});
    }
    Digest d0 = contentDigest(r);

    client::Result flip = r;
    flip.rows[31][0].s[2] = 'X';
    expect(!(contentDigest(flip) == d0), "one changed string byte");
    flip = r;
    flip.rows[17][1].i += 1;
    expect(!(contentDigest(flip) == d0), "one changed integer");
    flip = r;
    flip.rows[5][2].kind = net::Cell::Kind::Int;
    expect(!(contentDigest(flip) == d0), "NULL became 0");
    flip = r;
    flip.oids[9] = 1000;
    expect(!(contentDigest(flip) == d0), "one changed oid");
    flip = r;
    std::swap(flip.rows[3][0], flip.rows[3][1]);
    expect(!(contentDigest(flip) == d0), "two cells swapped in a row");
    flip = r;
    flip.rows.pop_back();
    flip.oids.pop_back();
    expect(!(contentDigest(flip) == d0), "one row missing");
    flip = r;
    std::swap(flip.rows[0], flip.rows[40]);
    std::swap(flip.oids[0], flip.oids[40]);
    expect(contentDigest(flip) == d0, "row order does not matter");

    // Snapshot cuts: the first 30 rows are a cut at V in [30, 30].
    std::vector<KeyedRow> fin = keyedRows(r, Shape::Rows);
    client::Result cut = r;
    cut.rows.resize(30);
    cut.oids.resize(30);
    std::vector<KeyedRow> got = keyedRows(cut, Shape::Rows);
    expect(consistentCut(got, fin, got, Shape::Rows, 25, 40),
           "prefix is a cut");
    expect(!consistentCut(got, fin, got, Shape::Rows, 31, 40),
           "prefix shorter than the acknowledged documents");
    cut.rows[10][1].i = -1;
    expect(!consistentCut(keyedRows(cut, Shape::Rows), fin, got,
                          Shape::Rows, 0, 50),
           "corrupted cell in a cut");
    return failures == 0 ? 0 : 1;
}

/**
 * Wait for dvpd's port file, then retry until one query is answered:
 * the end of a set-up or restart.
 */
int
cmdPing(const Args &a)
{
    std::string pf = a.str("port-file");
    uint64_t deadline = nowNs() + 170 * 1000000000ull;
    while (nowNs() < deadline) {
        std::ifstream in(pf);
        unsigned port = 0;
        if (in >> port && port != 0) {
            client::Client c;
            if (c.connect("127.0.0.1", static_cast<uint16_t>(port),
                          "perfbench", 1000)
                    .empty() &&
                c.query("SELECT str1, num FROM t WHERE str1 = 'str1_0'").ok) {
                c.close();
                std::printf("%u\n", port);
                return 0;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    die("no answer from '" + pf + "'");
}

int
usage()
{
    std::fprintf(stderr, "usage: pbtool gen|read|ingest|verify|probe|"
                         "ping|selftest [--flag value]...\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "selftest")
        return cmdSelftest();
    Args a = parseArgs(argc, argv, 2);
    if (cmd == "gen")
        return cmdGen(a);
    if (cmd == "read")
        return cmdRead(a);
    if (cmd == "ingest")
        return cmdIngest(a);
    if (cmd == "verify")
        return cmdVerify(a);
    if (cmd == "probe")
        return cmdProbe(a);
    if (cmd == "ping")
        return cmdPing(a);
    return usage();
}
