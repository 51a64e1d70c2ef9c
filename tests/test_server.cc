/**
 * @file
 * Tests for the network query-serving subsystem: the wire protocol
 * (src/net), the TCP server (src/server), and the client library
 * (src/client).
 *
 * The protocol tests exercise encode/decode round-trips and every
 * framing violation class (truncation, garbage, oversized lengths,
 * CRC corruption), and fuzz every decoder with seeded mutations of
 * valid frames.  The server tests run a real server on an ephemeral
 * loopback port and prove the acceptance criteria: concurrent clients
 * observe digests byte-identical to in-process execution — including
 * while an adaptive repartition swaps the layout underneath the open
 * connections — backpressure rejects are typed, graceful drain
 * delivers every admitted response, and the dvp_server_* metrics reach
 * the Prometheus exporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "durability/manager.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "server/server.hh"
#include "sql/run.hh"
#include "storage/dictionary.hh"
#include "util/fault.hh"
#include "util/random.hh"

namespace dvp
{
namespace
{

using adaptive::AdaptiveEngine;
using adaptive::Params;

// ---------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------

TEST(Wire, CrcMatchesKnownVector)
{
    // IEEE CRC-32 of "123456789" is the classic check value.
    EXPECT_EQ(net::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(net::crc32("", 0), 0u);
}

TEST(Wire, TypedBodiesRoundTrip)
{
    net::HelloBody hello;
    hello.clientName = "unit";
    net::HelloBody hello2;
    ASSERT_TRUE(decodeHello(encodeHello(hello), hello2));
    EXPECT_EQ(hello2.wireVersion, net::kWireVersion);
    EXPECT_EQ(hello2.clientName, "unit");

    net::HelloOkBody ok;
    ok.serverName = "dvpd-test";
    ok.sessionId = 42;
    net::HelloOkBody ok2;
    ASSERT_TRUE(decodeHelloOk(encodeHelloOk(ok), ok2));
    EXPECT_EQ(ok2.serverName, "dvpd-test");
    EXPECT_EQ(ok2.sessionId, 42u);

    net::QueryBody q;
    q.sql = "SELECT * FROM t WHERE num BETWEEN 1 AND 2";
    net::QueryBody q2;
    ASSERT_TRUE(decodeQuery(encodeQuery(q), q2));
    EXPECT_EQ(q2.sql, q.sql);

    net::ErrorBody e;
    e.code = net::ErrorCode::ServerBusy;
    e.message = "try later";
    net::ErrorBody e2;
    ASSERT_TRUE(decodeError(encodeError(e), e2));
    EXPECT_EQ(e2.code, net::ErrorCode::ServerBusy);
    EXPECT_EQ(e2.message, "try later");

    net::ResultBody r;
    r.columns = {"oid", "num", "str1"};
    r.oids = {7, 9};
    r.rows = {{net::Cell{net::Cell::Kind::Int, 123, ""},
               net::Cell{net::Cell::Kind::Str, 0, "hello"}},
              {net::Cell{net::Cell::Kind::Null, 0, ""},
               net::Cell{net::Cell::Kind::Int, -5, ""}}};
    r.digest = 0xDEADBEEFCAFEF00DULL;
    r.checksum = 0x1234;
    r.execNs = 98765;
    net::ResultBody r2;
    ASSERT_TRUE(decodeResult(encodeResult(r), r2));
    EXPECT_EQ(r2.kind, net::ResultBody::Kind::Rows);
    EXPECT_EQ(r2.columns, r.columns);
    EXPECT_EQ(r2.oids, r.oids);
    ASSERT_EQ(r2.rows.size(), 2u);
    EXPECT_EQ(r2.rows[0][0].kind, net::Cell::Kind::Int);
    EXPECT_EQ(r2.rows[0][0].i, 123);
    EXPECT_EQ(r2.rows[0][1].s, "hello");
    EXPECT_EQ(r2.rows[1][0].kind, net::Cell::Kind::Null);
    EXPECT_EQ(r2.rows[1][1].i, -5);
    EXPECT_EQ(r2.digest, r.digest);
    EXPECT_EQ(r2.checksum, r.checksum);
    EXPECT_EQ(r2.execNs, r.execNs);

    net::ResultBody msg;
    msg.kind = net::ResultBody::Kind::Message;
    msg.message = "ingested 10 documents";
    net::ResultBody msg2;
    ASSERT_TRUE(decodeResult(encodeResult(msg), msg2));
    EXPECT_EQ(msg2.kind, net::ResultBody::Kind::Message);
    EXPECT_EQ(msg2.message, msg.message);

    net::StatsBody st;
    st.entries = {{"requests_total", 12}, {"docs", 5000}};
    net::StatsBody st2;
    ASSERT_TRUE(decodeStats(encodeStats(st), st2));
    EXPECT_EQ(st2.entries, st.entries);
}

TEST(Wire, AssemblerReassemblesByteDribble)
{
    // Three frames fed one byte at a time must come out intact and in
    // order.
    net::QueryBody q;
    q.sql = "SELECT str1, num FROM t";
    std::string stream =
        net::encodeFrame(net::FrameType::Hello,
                         encodeHello(net::HelloBody{})) +
        net::encodeFrame(net::FrameType::Query, encodeQuery(q)) +
        net::encodeFrame(net::FrameType::Close, "");

    net::FrameAssembler as;
    std::vector<net::Frame> frames;
    net::Frame f;
    for (char c : stream) {
        as.feed(&c, 1);
        while (as.next(f))
            frames.push_back(f);
        EXPECT_FALSE(as.error());
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, net::FrameType::Hello);
    EXPECT_EQ(frames[1].type, net::FrameType::Query);
    net::QueryBody q2;
    ASSERT_TRUE(decodeQuery(frames[1].payload, q2));
    EXPECT_EQ(q2.sql, q.sql);
    EXPECT_EQ(frames[2].type, net::FrameType::Close);
    EXPECT_EQ(as.buffered(), 0u);
}

TEST(Wire, TruncatedFrameIsPendingNotError)
{
    std::string frame = net::encodeFrame(
        net::FrameType::Query,
        encodeQuery(net::QueryBody{"SELECT * FROM t"}));
    net::FrameAssembler as;
    as.feed(frame.data(), frame.size() - 4);
    net::Frame f;
    EXPECT_FALSE(as.next(f));
    EXPECT_FALSE(as.error()) << as.errorDetail();
    as.feed(frame.data() + frame.size() - 4, 4);
    EXPECT_TRUE(as.next(f));
    EXPECT_EQ(f.type, net::FrameType::Query);
}

TEST(Wire, GarbageMagicLatchesError)
{
    net::FrameAssembler as;
    std::string junk = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
    as.feed(junk.data(), junk.size());
    net::Frame f;
    EXPECT_FALSE(as.next(f));
    EXPECT_TRUE(as.error());
    EXPECT_NE(as.errorDetail().find("magic"), std::string::npos);
}

TEST(Wire, BadVersionAndReservedAndOversizedAreErrors)
{
    std::string good = net::encodeFrame(net::FrameType::Close, "");

    {
        std::string bad = good;
        bad[2] = char(net::kWireVersion + 1); // version byte
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
    {
        std::string bad = good;
        bad[12] = 1; // reserved must be zero
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
    {
        std::string bad = good;
        uint32_t huge = net::kMaxPayload + 1;
        std::memcpy(&bad[4], &huge, 4); // length field
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
    {
        std::string bad = good;
        bad[3] = 99; // frame type out of range
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
}

TEST(Wire, CrcMismatchIsAnError)
{
    std::string frame = net::encodeFrame(
        net::FrameType::Query,
        encodeQuery(net::QueryBody{"SELECT * FROM t"}));
    frame[frame.size() - 1] ^= 0x40; // flip a payload bit
    net::FrameAssembler as;
    as.feed(frame.data(), frame.size());
    net::Frame f;
    EXPECT_FALSE(as.next(f));
    EXPECT_TRUE(as.error());
    EXPECT_NE(as.errorDetail().find("CRC"), std::string::npos);
}

TEST(Wire, DecodersRejectShortAndTrailingBytes)
{
    std::string ok = encodeQuery(net::QueryBody{"SELECT 1"});
    net::QueryBody q;
    EXPECT_FALSE(decodeQuery(ok.substr(0, ok.size() - 1), q));
    EXPECT_FALSE(decodeQuery(ok + "x", q));

    // A RESULT whose row count implies more bytes than the payload
    // holds must fail cleanly instead of over-allocating.
    net::ResultBody r;
    r.oids = {1};
    r.rows = {{net::Cell{net::Cell::Kind::Int, 7, ""}}};
    std::string enc = encodeResult(r);
    net::ResultBody out;
    EXPECT_FALSE(decodeResult(enc.substr(0, enc.size() / 2), out));
}

// ---------------------------------------------------------------------
// Wire fuzz: seeded mutations of valid frames.  Every input must give
// a typed error (a decoder returning false, an assembler latching
// error()) or an exact round trip; the ASan+UBSan run of this suite
// turns a crash or an over-read into a failure.
// ---------------------------------------------------------------------

/** Random valid frame bodies, and byte-level mutations of encodings. */
struct WireFuzz
{
    Rng rng;

    explicit WireFuzz(uint64_t seed) : rng(seed) {}

    std::string
    text()
    {
        static const char kChars[] = "abcSELECT *=',_0123456789\0\xff";
        std::string s(rng.below(24), ' ');
        for (char &c : s)
            c = kChars[rng.below(sizeof(kChars) - 1)];
        return s;
    }

    uint32_t
    level()
    {
        return rng.chance(0.5) ? net::kFeatureTrace : net::kFeatureBase;
    }

    net::HelloBody
    hello()
    {
        return {static_cast<uint32_t>(rng.below(4)), text()};
    }

    net::HelloOkBody
    helloOk()
    {
        return {static_cast<uint32_t>(rng.below(4)), text(), rng.next()};
    }

    net::QueryBody
    query()
    {
        net::QueryBody q;
        q.sql = text();
        q.hasTraceId = rng.chance(0.5);
        q.traceId = q.hasTraceId ? rng.next() : 0;
        return q;
    }

    net::ErrorBody
    error()
    {
        return {static_cast<net::ErrorCode>(rng.below(10)), text()};
    }

    net::ResultBody
    result()
    {
        net::ResultBody r;
        if (rng.chance(0.2)) {
            r.kind = net::ResultBody::Kind::Message;
            r.message = text();
        }
        size_t width = rng.below(4);
        for (size_t c = 0; c < width; ++c)
            r.columns.push_back(text());
        for (size_t i = rng.below(6); i > 0; --i) {
            r.oids.push_back(static_cast<int64_t>(rng.next()));
            std::vector<net::Cell> row(width);
            for (net::Cell &cell : row) {
                cell.kind = static_cast<net::Cell::Kind>(rng.below(3));
                if (cell.kind == net::Cell::Kind::Int)
                    cell.i = static_cast<int64_t>(rng.next());
                else if (cell.kind == net::Cell::Kind::Str)
                    cell.s = text();
            }
            r.rows.push_back(std::move(row));
        }
        r.digest = rng.next();
        r.checksum = rng.next();
        r.execNs = rng.next();
        r.hasTraceId = rng.chance(0.5);
        r.traceId = r.hasTraceId ? rng.next() : 0;
        for (size_t i = rng.below(3); i > 0; --i)
            r.opStats.emplace_back(text(), rng.next());
        return r;
    }

    net::StatsBody
    stats()
    {
        net::StatsBody st;
        for (size_t i = rng.below(5); i > 0; --i)
            st.entries.emplace_back(text(), rng.next());
        return st;
    }

    /**
     * One to three mutations: overwrite a byte, flip a bit, insert,
     * erase, truncate, or write a count-like u32 (0, 1, near the
     * length, past kMaxPayload) over the bytes.
     */
    void
    mutate(std::string &s)
    {
        static const uint32_t kWords[] = {0,           1,
                                          0x7fffffffu, 0xffffffffu,
                                          net::kMaxPayload,
                                          net::kMaxPayload + 1};
        for (size_t m = 1 + rng.below(3); m > 0; --m) {
            size_t at = rng.below(s.size() + 1);
            switch (rng.below(6)) {
              case 0:
                if (at < s.size())
                    s[at] = static_cast<char>(rng.below(256));
                break;
              case 1:
                if (at < s.size())
                    s[at] ^= static_cast<char>(1u << rng.below(8));
                break;
              case 2:
                s.insert(at, 1, static_cast<char>(rng.below(256)));
                break;
              case 3:
                if (at < s.size())
                    s.erase(at, 1 + rng.below(4));
                break;
              case 4:
                s.resize(at);
                break;
              default: {
                uint32_t v = rng.chance(0.5)
                                 ? kWords[rng.below(std::size(kWords))]
                                 : static_cast<uint32_t>(
                                       s.size() + rng.below(3) - 1);
                s.replace(at, 4, reinterpret_cast<const char *>(&v), 4);
                break;
              }
            }
        }
    }
};

/**
 * 5000 rounds over one body codec: a valid body must round-trip
 * exactly at the level it was encoded at; a mutation of it must be
 * rejected or re-encode exactly.  @p tlv marks bodies that may end in
 * a TLV extension block, whose unknown tags a decoder skips by design:
 * for those the exact round trip covers the fixed fields (the level-1
 * encoding is a prefix of the input), and the level-2 re-encoding must
 * decode back to itself.
 */
template <typename Body, typename Encode>
void
fuzzCodec(uint64_t seed, Body (WireFuzz::*gen)(),
          bool (*decode)(const std::string &, Body &), Encode encode,
          bool tlv)
{
    WireFuzz fz(seed);
    size_t accepted = 0;
    for (int i = 0; i < 5000; ++i) {
        const uint32_t level = fz.level();
        const std::string valid = encode((fz.*gen)(), level);
        Body b;
        ASSERT_TRUE(decode(valid, b)) << "round " << i;
        ASSERT_EQ(encode(b, level), valid) << "round " << i;

        std::string in = valid;
        fz.mutate(in);
        // An exact-size heap copy: reading past it trips ASan.
        const std::string exact(in.data(), in.size());
        Body m;
        if (!decode(exact, m))
            continue; // typed rejection
        ++accepted;
        const std::string fixed = encode(m, net::kFeatureBase);
        if (!tlv) {
            ASSERT_EQ(fixed, exact) << "round " << i;
            continue;
        }
        ASSERT_EQ(exact.compare(0, fixed.size(), fixed), 0)
            << "round " << i;
        const std::string canon = encode(m, net::kFeatureTrace);
        Body again;
        ASSERT_TRUE(decode(canon, again)) << "round " << i;
        ASSERT_EQ(encode(again, net::kFeatureTrace), canon)
            << "round " << i;
    }
    // Some mutations must stay decodable, or the round-trip half of
    // the property is never exercised.
    EXPECT_GT(accepted, 0u);
}

TEST(WireFuzz, HelloBodies)
{
    fuzzCodec(101, &WireFuzz::hello, net::decodeHello,
              [](const net::HelloBody &b, uint32_t) {
                  return net::encodeHello(b);
              },
              false);
}

TEST(WireFuzz, HelloOkBodies)
{
    fuzzCodec(102, &WireFuzz::helloOk, net::decodeHelloOk,
              [](const net::HelloOkBody &b, uint32_t) {
                  return net::encodeHelloOk(b);
              },
              false);
}

TEST(WireFuzz, QueryBodies)
{
    fuzzCodec(103, &WireFuzz::query, net::decodeQuery,
              [](const net::QueryBody &b, uint32_t level) {
                  return net::encodeQuery(b, level);
              },
              true);
}

TEST(WireFuzz, ErrorBodies)
{
    fuzzCodec(104, &WireFuzz::error, net::decodeError,
              [](const net::ErrorBody &b, uint32_t) {
                  return net::encodeError(b);
              },
              false);
}

TEST(WireFuzz, ResultBodies)
{
    fuzzCodec(105, &WireFuzz::result, net::decodeResult,
              [](const net::ResultBody &b, uint32_t level) {
                  return net::encodeResult(b, level);
              },
              true);
}

TEST(WireFuzz, StatsBodies)
{
    fuzzCodec(106, &WireFuzz::stats, net::decodeStats,
              [](const net::StatsBody &b, uint32_t) {
                  return net::encodeStats(b);
              },
              false);
}

TEST(WireFuzz, AssemblerSplitFeedsMatchOneFeed)
{
    // Streams of valid frames, mutated three times in four, fed once
    // whole and once in random splits (draining between feeds): both
    // must yield the same frames and the same verdict, and the frames
    // delivered must re-encode to exactly the bytes they came from.
    WireFuzz fz(107);
    auto drain = [](net::FrameAssembler &a, std::vector<net::Frame> &out) {
        net::Frame f;
        while (a.next(f))
            out.push_back(f);
    };
    for (int i = 0; i < 3000; ++i) {
        std::string stream;
        std::vector<net::Frame> sent;
        for (size_t n = 1 + fz.rng.below(4); n > 0; --n) {
            net::Frame f;
            f.type = static_cast<net::FrameType>(1 + fz.rng.below(8));
            f.payload = fz.rng.chance(0.5)
                            ? net::encodeResult(fz.result(), fz.level())
                            : net::encodeQuery(fz.query(), fz.level());
            stream += net::encodeFrame(f.type, f.payload);
            sent.push_back(std::move(f));
        }
        const bool mutated = i % 4 != 0;
        if (mutated)
            fz.mutate(stream);

        net::FrameAssembler whole;
        whole.feed(stream.data(), stream.size());
        std::vector<net::Frame> got;
        drain(whole, got);

        net::FrameAssembler split;
        std::vector<net::Frame> got_split;
        for (size_t at = 0; at < stream.size();) {
            size_t n = std::min<size_t>(stream.size() - at,
                                        1 + fz.rng.below(40));
            const std::string chunk = stream.substr(at, n);
            split.feed(chunk.data(), chunk.size());
            at += n;
            drain(split, got_split);
        }

        ASSERT_EQ(got.size(), got_split.size()) << "round " << i;
        std::string delivered;
        for (size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].type, got_split[k].type) << "round " << i;
            ASSERT_EQ(got[k].payload, got_split[k].payload)
                << "round " << i;
            delivered += net::encodeFrame(got[k].type, got[k].payload);
        }
        ASSERT_EQ(whole.error(), split.error()) << "round " << i;
        ASSERT_EQ(whole.errorDetail(), split.errorDetail())
            << "round " << i;
        ASSERT_EQ(stream.compare(0, delivered.size(), delivered), 0)
            << "round " << i;
        if (!whole.error()) {
            ASSERT_EQ(whole.buffered(), stream.size() - delivered.size())
                << "round " << i;
        }
        if (!mutated) {
            ASSERT_FALSE(whole.error()) << whole.errorDetail();
            ASSERT_EQ(got.size(), sent.size());
            for (size_t k = 0; k < sent.size(); ++k) {
                EXPECT_EQ(got[k].type, sent[k].type);
                EXPECT_EQ(got[k].payload, sent[k].payload);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Server fixture: one NoBench data set shared by every server test.
// ---------------------------------------------------------------------

/** Q1-Q11 as SQL (the paper's mix; Q12/LOAD is tested separately). */
const std::vector<std::string> &
queryMix()
{
    static const std::vector<std::string> mix = {
        "SELECT str1, num FROM t",
        "SELECT nested_obj.str, sparse_300 FROM t",
        "SELECT sparse_110, sparse_119 FROM t",
        "SELECT sparse_110, sparse_220 FROM t",
        "SELECT * FROM t WHERE str1 = 'str1_17'",
        "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999",
        "SELECT * FROM t WHERE dyn1 BETWEEN 5000 AND 6999",
        "SELECT sparse_330, num FROM t WHERE 'arr_7' = ANY nested_arr",
        "SELECT * FROM t WHERE sparse_300 = 'sparse_val_3'",
        "SELECT COUNT(*) FROM t WHERE num BETWEEN 0 AND 499999 "
        "GROUP BY thousandth",
        "SELECT * FROM t AS l INNER JOIN t AS r "
        "ON l.nested_obj.str = r.str1 WHERE l.num BETWEEN 0 AND 999",
    };
    return mix;
}

class ServerWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        uint64_t docs = 1200;
        if (const char *env = std::getenv("DVP_TEST_DOCS"))
            docs = std::strtoull(env, nullptr, 10);
        cfg.numDocs = docs;
        cfg.seed = 99;
        data = new engine::DataSet(nobench::generateDataSet(cfg));
        qs = new nobench::QuerySet(*data, cfg);
    }

    static void
    TearDownTestSuite()
    {
        delete qs;
        delete data;
        qs = nullptr;
        data = nullptr;
    }

    /** A fresh engine over a freshly generated twin of the data set. */
    struct World
    {
        engine::DataSet data;
        std::unique_ptr<AdaptiveEngine> engine;

        explicit World(Params prm = defaultParams())
            : data(nobench::generateDataSet(ServerWorld::cfg))
        {
            Rng rng(1);
            auto initial = nobench::representatives(
                *ServerWorld::qs, nobench::Mix::uniform(), rng);
            engine =
                std::make_unique<AdaptiveEngine>(data, initial, prm);
        }
    };

    static Params
    defaultParams()
    {
        Params prm;
        prm.background = true;
        prm.adapt = false; // repartition tests opt in explicitly
        return prm;
    }

    static nobench::Config cfg;
    static engine::DataSet *data;
    static nobench::QuerySet *qs;
};

nobench::Config ServerWorld::cfg;
engine::DataSet *ServerWorld::data = nullptr;
nobench::QuerySet *ServerWorld::qs = nullptr;

TEST_F(ServerWorld, HandshakeQueryAndStats)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "unit"), "");
    EXPECT_EQ(c.serverName(), "dvpd");
    EXPECT_GT(c.sessionId(), 0u);

    client::Result r =
        c.query("SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.isMessage);
    EXPECT_EQ(r.rows.size(), r.oids.size());

    // The digest in the frame matches an in-process run.
    sql::RunResult local = sql::runStatement(
        *w.engine, "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(r.digest, local.rows.digest());
    EXPECT_EQ(r.checksum, local.rows.checksum);
    EXPECT_EQ(r.rows.size(), local.rows.rowCount());

    // EXPLAIN comes back as a message.
    client::Result ex =
        c.query("EXPLAIN SELECT str1, num FROM t");
    ASSERT_TRUE(ex.ok) << ex.error;
    EXPECT_TRUE(ex.isMessage);
    EXPECT_NE(ex.message.find("selectivity"), std::string::npos);

    // STATS reflects the session.
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.get("connections_total"), 1u);
    EXPECT_GE(st.get("requests_total"), 2u);
    EXPECT_EQ(st.get("docs"), w.data.docs.size());

    // Parse errors are typed, and the connection survives them.
    client::Result bad = c.query("SELEKT nope");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, net::ErrorCode::Parse);
    client::Result again = c.query("SELECT str1, num FROM t");
    EXPECT_TRUE(again.ok) << again.error;

    c.close();
    srv.stop();
    server::ServerStats s = srv.stats();
    EXPECT_EQ(s.connections, 1u);
    EXPECT_GE(s.requests, 3u);
}

TEST_F(ServerWorld, QueryBeforeHelloIsAProtocolError)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    std::string err;
    int fd = net::connectTcp("127.0.0.1", srv.port(), 2000, &err);
    ASSERT_GE(fd, 0) << err;
    std::string frame = net::encodeFrame(
        net::FrameType::Query,
        encodeQuery(net::QueryBody{"SELECT str1, num FROM t"}));
    ASSERT_TRUE(net::sendAll(fd, frame.data(), frame.size()));

    net::FrameAssembler as;
    net::Frame f;
    char buf[4096];
    bool got = false;
    while (!got) {
        long n = net::recvSome(fd, buf, sizeof(buf));
        ASSERT_GT(n, 0) << "server closed without an ERROR frame";
        as.feed(buf, static_cast<size_t>(n));
        got = as.next(f);
        ASSERT_FALSE(as.error());
    }
    EXPECT_EQ(f.type, net::FrameType::Error);
    net::ErrorBody e;
    ASSERT_TRUE(decodeError(f.payload, e));
    EXPECT_EQ(e.code, net::ErrorCode::Protocol);

    // And the server hangs up: the next read is EOF.
    long n = net::recvSome(fd, buf, sizeof(buf));
    EXPECT_LE(n, 0);
    net::closeFd(fd);
    srv.stop();
}

TEST_F(ServerWorld, GarbageBytesGetTypedProtocolError)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    std::string err;
    int fd = net::connectTcp("127.0.0.1", srv.port(), 2000, &err);
    ASSERT_GE(fd, 0) << err;
    std::string junk = "this is not a frame";
    ASSERT_TRUE(net::sendAll(fd, junk.data(), junk.size()));

    net::FrameAssembler as;
    net::Frame f;
    char buf[4096];
    bool got = false;
    while (!got) {
        long n = net::recvSome(fd, buf, sizeof(buf));
        if (n <= 0)
            break; // EOF before the error frame is also acceptable
        as.feed(buf, static_cast<size_t>(n));
        got = as.next(f);
    }
    if (got) {
        net::ErrorBody e;
        ASSERT_TRUE(decodeError(f.payload, e));
        EXPECT_EQ(e.code, net::ErrorCode::Protocol);
    }
    net::closeFd(fd);
    srv.stop();
    EXPECT_GE(srv.stats().protocolErrors, 1u);
}

TEST_F(ServerWorld, ConcurrentClientsMatchInProcessDigests)
{
    World w;
    server::Config scfg;
    scfg.workers = 3;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    // In-process reference digests through the exact same dispatch.
    std::vector<uint64_t> expect_digest, expect_checksum, expect_rows;
    for (const std::string &sql : queryMix()) {
        sql::RunResult r = sql::runStatement(*w.engine, sql);
        ASSERT_TRUE(r.ok) << sql << ": " << r.error;
        expect_digest.push_back(r.rows.digest());
        expect_checksum.push_back(r.rows.checksum);
        expect_rows.push_back(r.rows.rowCount());
    }

    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            client::Client c;
            if (!c.connect("127.0.0.1", srv.port(),
                           "digest-" + std::to_string(t))
                     .empty()) {
                ++failures;
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                for (size_t qi = 0; qi < queryMix().size(); ++qi) {
                    client::Result r = c.query(queryMix()[qi]);
                    if (!r.ok || r.digest != expect_digest[qi] ||
                        r.checksum != expect_checksum[qi] ||
                        r.rows.size() != expect_rows[qi]) {
                        ADD_FAILURE()
                            << "client " << t << " Q" << (qi + 1)
                            << " mismatch: " << r.error;
                        ++failures;
                    }
                }
            }
            c.close();
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    srv.stop();
    EXPECT_EQ(srv.stats().connections,
              static_cast<uint64_t>(kClients));
    EXPECT_GE(srv.stats().requests,
              static_cast<uint64_t>(kClients * kRounds *
                                    queryMix().size()));
}

TEST_F(ServerWorld, DigestsStableWhileRepartitionSwapsUnderneath)
{
    // Adaptation on, tiny window: an in-process workload shift forces
    // a background repartition while wire clients keep querying.
    Params prm;
    prm.background = true;
    prm.adapt = true;
    prm.window = 20;
    prm.changeThreshold = 0.1;
    World w(prm);

    server::Config scfg;
    scfg.workers = 2;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    std::vector<uint64_t> expect_digest;
    for (const std::string &sql : queryMix()) {
        sql::RunResult r = sql::runStatement(*w.engine, sql);
        ASSERT_TRUE(r.ok) << sql << ": " << r.error;
        expect_digest.push_back(r.rows.digest());
    }

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    // Wire clients: loop the mix, digests must never change.
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
            client::Client c;
            if (!c.connect("127.0.0.1", srv.port(),
                           "race-" + std::to_string(t))
                     .empty()) {
                ++failures;
                return;
            }
            size_t qi = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                size_t i = qi++ % queryMix().size();
                client::Result r = c.query(queryMix()[i]);
                if (!r.ok || r.digest != expect_digest[i]) {
                    ADD_FAILURE() << "during swap, Q" << (i + 1)
                                  << ": " << r.error;
                    ++failures;
                    break;
                }
            }
            c.close();
        });
    }

    // Shift the workload in-process until a repartition lands.
    Rng rng(7);
    int guard = 0;
    while (w.engine->adaptation().repartitions.load(
               std::memory_order_relaxed) == 0 &&
           ++guard < 2000) {
        w.engine->execute(ServerWorld::qs->instantiateShifted(
            guard % nobench::kNumTemplates, rng));
    }
    w.engine->quiesce(); // repartition complete, layout swapped
    EXPECT_GE(w.engine->adaptation().repartitions.load(
                  std::memory_order_relaxed),
              1u);

    // Keep the wire traffic going a little longer on the new layout.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true, std::memory_order_relaxed);
    for (auto &th : clients)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    srv.stop();
}

TEST_F(ServerWorld, BackpressureRejectsAreTypedAndRecoverable)
{
    World w;
    server::Config scfg;
    scfg.workers = 1;
    scfg.maxInflight = 1;
    server::Server srv(*w.engine, scfg);

    // The hook parks the single worker until released, pinning
    // inflight at the watermark deterministically.
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, release = false;
    srv.setExecuteHook([&] {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_EQ(srv.start(), "");

    client::Client a, b;
    ASSERT_EQ(a.connect("127.0.0.1", srv.port(), "a"), "");
    ASSERT_EQ(b.connect("127.0.0.1", srv.port(), "b"), "");

    std::thread slow([&] {
        client::Result r = a.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok) << r.error;
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }
    ASSERT_EQ(srv.inflight(), 1u);

    // Past the watermark: typed SERVER_BUSY, connection stays usable.
    client::Result busy = b.query("SELECT str1, num FROM t");
    EXPECT_FALSE(busy.ok);
    EXPECT_TRUE(busy.busy());
    EXPECT_EQ(busy.errorCode, net::ErrorCode::ServerBusy);

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    slow.join();
    srv.setExecuteHook({});

    // After the slot frees, the same connection succeeds.  The slot is
    // released only after the worker finishes writing the previous
    // response, so a prompt follow-up can still catch the busy window;
    // SERVER_BUSY is typed precisely so clients can retry it.
    client::Result again = b.query("SELECT str1, num FROM t");
    for (int i = 0; i < 50 && !again.ok && again.busy(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        again = b.query("SELECT str1, num FROM t");
    }
    EXPECT_TRUE(again.ok) << again.error;

    a.close();
    b.close();
    srv.stop();
    EXPECT_GE(srv.stats().rejects, 1u);
}

TEST_F(ServerWorld, GracefulDrainDeliversInflightAndRefusesNew)
{
    World w;
    server::Config scfg;
    scfg.workers = 1;
    server::Server srv(*w.engine, scfg);

    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, release = false;
    srv.setExecuteHook([&] {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_EQ(srv.start(), "");
    uint16_t port = srv.port();

    client::Client a, b;
    ASSERT_EQ(a.connect("127.0.0.1", port, "a"), "");
    ASSERT_EQ(b.connect("127.0.0.1", port, "b"), "");

    std::thread slow([&] {
        // Admitted before the drain: must still get its full result.
        client::Result r = a.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_GT(r.rows.size(), 0u);
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }

    srv.requestStop();
    // The drain closes the listener before refusing queries; once new
    // connections fail, the SHUTTING_DOWN path is active.
    for (int i = 0; i < 200; ++i) {
        std::string err;
        int fd = net::connectTcp("127.0.0.1", port, 200, &err);
        if (fd < 0)
            break;
        net::closeFd(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    client::Result refused = b.query("SELECT str1, num FROM t");
    EXPECT_FALSE(refused.ok);
    EXPECT_TRUE(refused.shuttingDown())
        << net::errorCodeName(refused.errorCode) << " "
        << refused.error;

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    slow.join();
    srv.stop();
    EXPECT_TRUE(srv.drained());
    EXPECT_FALSE(srv.running());

    // Fully stopped: nothing is listening any more.
    std::string err;
    int fd = net::connectTcp("127.0.0.1", port, 200, &err);
    if (fd >= 0)
        net::closeFd(fd);
    EXPECT_LT(fd, 0);
}

TEST_F(ServerWorld, LoadDataOverTheWire)
{
    // Q12: bulk ingest through the server, gated by Config::allowLoad.
    std::string path = ::testing::TempDir() + "dvp_server_load.jsonl";
    {
        std::ofstream out(path);
        for (int i = 0; i < 25; ++i)
            out << "{\"num\": " << (9000000 + i)
                << ", \"str1\": \"wire_load_" << i << "\"}\n";
    }

    {
        // Default config refuses LOAD with a typed Unsupported error.
        World w;
        server::Server srv(*w.engine, {});
        ASSERT_EQ(srv.start(), "");
        client::Client c;
        ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
        client::Result r =
            c.query("LOAD DATA LOCAL INFILE '" + path +
                    "' REPLACE INTO TABLE t");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorCode, net::ErrorCode::Unsupported);
        c.close();
        srv.stop();
    }

    World w;
    server::Config scfg;
    scfg.allowLoad = true;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");

    uint64_t docs_before = c.stats().get("docs");
    client::Result r = c.query("LOAD DATA LOCAL INFILE '" + path +
                               "' REPLACE INTO TABLE t");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.isMessage);
    EXPECT_NE(r.message.find("25"), std::string::npos);
    EXPECT_EQ(c.stats().get("docs"), docs_before + 25);

    // The ingested rows are immediately queryable on this connection.
    client::Result probe = c.query(
        "SELECT * FROM t WHERE num BETWEEN 9000000 AND 9000024");
    ASSERT_TRUE(probe.ok) << probe.error;
    EXPECT_EQ(probe.rows.size(), 25u);

    // A missing file is an Exec error, not a dead connection.
    client::Result gone = c.query(
        "LOAD DATA LOCAL INFILE '/nonexistent/nope.jsonl' "
        "REPLACE INTO TABLE t");
    EXPECT_FALSE(gone.ok);
    EXPECT_EQ(gone.errorCode, net::ErrorCode::Exec);

    c.close();
    srv.stop();
    std::remove(path.c_str());
}

TEST_F(ServerWorld, LoadIsNotAcknowledgedWhenItsWalCommitFails)
{
    // A --data-dir engine: LOAD, like INSERT, is acknowledged only
    // once its WAL record is committed.  A parse error ingests nothing.
    std::string dir = ::testing::TempDir() + "dvp_server_load_wal." +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    durability::Config dcfg;
    dcfg.dir = dir;
    dcfg.fsyncPolicy = durability::FsyncPolicy::None;
    durability::Manager mgr(dcfg);
    engine::DataSet scratch;
    durability::RecoveryInfo info;
    ASSERT_EQ(mgr.open(scratch, info), "");

    std::string good = ::testing::TempDir() + "dvp_server_load_wal.jsonl";
    std::string bad = ::testing::TempDir() + "dvp_server_load_bad.jsonl";
    {
        std::ofstream g(good), b(bad);
        for (int i = 0; i < 5; ++i) {
            g << "{\"num\": " << (9200000 + i) << "}\n";
            b << "{\"num\": " << (9200000 + i) << "}\n";
        }
        b << "{\"num\": \n";
    }

    World w;
    w.engine->setDurability(&mgr);
    server::Config scfg;
    scfg.allowLoad = true;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    const uint64_t docs_before = c.stats().get("docs");

    client::Result parse_err = c.query("LOAD DATA LOCAL INFILE '" + bad +
                                       "' REPLACE INTO TABLE t");
    EXPECT_FALSE(parse_err.ok);
    EXPECT_EQ(parse_err.errorCode, net::ErrorCode::Exec);
    EXPECT_EQ(c.stats().get("docs"), docs_before);

    FaultInjector::global().arm(0); // every WAL byte is refused
    client::Result r = c.query("LOAD DATA LOCAL INFILE '" + good +
                               "' REPLACE INTO TABLE t");
    FaultInjector::global().disarm();
    EXPECT_FALSE(r.ok) << r.message;
    EXPECT_EQ(r.errorCode, net::ErrorCode::Exec);
    EXPECT_NE(r.error.find("LOAD not durable"), std::string::npos)
        << r.error;
    EXPECT_EQ(r.message.find("ingested"), std::string::npos);

    c.close();
    srv.stop();
    std::remove(good.c_str());
    std::remove(bad.c_str());
    std::filesystem::remove_all(dir);
}

TEST_F(ServerWorld, LoadRunsAlongsideQueries)
{
    // LOAD takes no server-side lock: it ingests through the engine's
    // batch append while another worker runs queries.  Each query reads
    // one snapshot, so it sees the loaded batch entirely or not at all.
    constexpr int kDocs = 200;
    std::string path = ::testing::TempDir() + "dvp_server_load_mt.jsonl";
    {
        std::ofstream out(path);
        for (int i = 0; i < kDocs; ++i)
            out << "{\"num\": " << (9100000 + i)
                << ", \"str1\": \"concurrent_load_" << i << "\"}\n";
    }

    World w;
    server::Config scfg;
    scfg.allowLoad = true;
    scfg.workers = 2;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    std::atomic<bool> loaded{false};
    std::thread reader([&] {
        client::Client c;
        ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "r"), "");
        for (int i = 0; i < 2000; ++i) {
            const bool after = loaded.load();
            client::Result r = c.query(
                "SELECT str1, num FROM t WHERE num BETWEEN 9100000 AND "
                "9100199");
            ASSERT_TRUE(r.ok) << r.error;
            ASSERT_TRUE(r.rows.empty() || r.rows.size() == kDocs)
                << r.rows.size() << " rows";
            if (after) {
                EXPECT_EQ(r.rows.size(), size_t{kDocs});
                break;
            }
        }
    });

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "w"), "");
    client::Result r = c.query("LOAD DATA LOCAL INFILE '" + path +
                               "' REPLACE INTO TABLE t");
    EXPECT_TRUE(r.ok) << r.error;
    loaded.store(true);
    reader.join();

    c.close();
    srv.stop();
    std::remove(path.c_str());
}

TEST_F(ServerWorld, IdleSessionsAreReaped)
{
    World w;
    server::Config scfg;
    scfg.idleTimeoutMs = 150;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");

    // Go idle past the timeout: the server hangs up on us.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    client::Result r = c.query("SELECT str1, num FROM t");
    EXPECT_FALSE(r.ok);
    srv.stop();
}

TEST_F(ServerWorld, ServerMetricsReachThePrometheusExporter)
{
    // Satellite: dvp_server_* counters/gauges/histogram flow through
    // the obs registry and the Prometheus exporter verbatim.
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    ASSERT_TRUE(c.query("SELECT str1, num FROM t").ok);
    c.close();
    srv.stop();

    std::string text =
        obs::exportPrometheus(obs::Registry::global());
    EXPECT_NE(text.find("# TYPE dvp_server_connections_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_server_requests_total"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dvp_server_queue_depth gauge"),
              std::string::npos);
    // One request-latency histogram per stage.
    EXPECT_NE(text.find("# TYPE dvp_server_stage_ns histogram"),
              std::string::npos);
    for (const char *stage : {"queue", "execute", "encode", "send"})
        EXPECT_NE(text.find(std::string("dvp_server_stage_ns_count") +
                            "{stage=\"" + stage + "\"}"),
                  std::string::npos)
            << stage;
    // Gauges exist even when they currently read zero.
    EXPECT_NE(text.find("dvp_server_sessions_active"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Request-scoped observability over the wire.
// ---------------------------------------------------------------------

TEST_F(ServerWorld, TraceIdAndOperatorSummaryPropagate)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    c.setTraceId(0xabad1deaf00dfeedull);
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "traced"), "");
    // Both ends speak level 2, so the handshake lands there.
    EXPECT_EQ(c.featureLevel(), net::kFeatureTrace);

    client::Result r =
        c.query("SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(r.ok) << r.error;
    // The server echoes the trace id and ships the operator summary.
    EXPECT_TRUE(r.hasTraceId);
    EXPECT_EQ(r.traceId, 0xabad1deaf00dfeedull);
    EXPECT_GT(r.execNs, 0u);
    ASSERT_FALSE(r.opStats.empty());
    auto get = [&](const std::string &k) -> uint64_t {
        for (const auto &[key, v] : r.opStats)
            if (key == k)
                return v;
        ADD_FAILURE() << "missing opStats key " << k;
        return 0;
    };
    EXPECT_EQ(get("rows_out"), r.rows.size());
    EXPECT_GT(get("rows_scanned"), 0u);

    // Clearing the trace id stops the echo but keeps the summary.
    c.setTraceId(0);
    client::Result r2 = c.query("SELECT str1, num FROM t");
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_FALSE(r2.hasTraceId);
    EXPECT_FALSE(r2.opStats.empty());

    c.close();
    srv.stop();
}

TEST_F(ServerWorld, LegacyClientWithoutTlvSupportStillWorks)
{
    // Compat: a pre-TLV client advertises level 1; the session must
    // degrade to the legacy encoding and complete queries unchanged.
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    client::Client legacy;
    legacy.setMaxFeatureLevel(net::kFeatureBase);
    legacy.setTraceId(123); // must be ignored at level 1
    ASSERT_EQ(legacy.connect("127.0.0.1", srv.port(), "old"), "");
    EXPECT_EQ(legacy.featureLevel(), net::kFeatureBase);

    client::Result r =
        legacy.query("SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.hasTraceId);
    EXPECT_TRUE(r.opStats.empty());

    sql::RunResult local = sql::runStatement(
        *w.engine, "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(r.digest, local.rows.digest());
    EXPECT_EQ(r.rows.size(), local.rows.rowCount());

    legacy.close();
    srv.stop();
}

TEST_F(ServerWorld, StatsExposeAdaptiveAuditTrail)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;

    // Construction recorded the initial partitioning decision.
    EXPECT_GE(st.get("audit_records"), 1u);
    EXPECT_GE(st.get("audit_last_seq"), 1u);
    EXPECT_GT(st.get("audit_last_tables"), 0u);
    EXPECT_EQ(st.get("audit_last_layout_fingerprint"),
              w.engine->snapshot()->layoutFingerprint());
    EXPECT_EQ(st.get("layout_epoch"), w.engine->snapshot()->epoch());

    c.close();
    srv.stop();
}

// ---------------------------------------------------------------------
// HTTP scrape endpoint, served from the server's event loop.
// ---------------------------------------------------------------------

/** Server tests whose server also listens on an ephemeral HTTP port. */
class HttpEndpoint : public ServerWorld
{
  protected:
    static server::Config
    httpConfig()
    {
        server::Config scfg;
        scfg.httpPort = 0;
        return scfg;
    }

    /** Connect to @p port with a 5 s send/receive timeout. */
    static int
    dial(uint16_t port)
    {
        std::string err;
        int fd = net::connectTcp("127.0.0.1", port, 5000, &err);
        EXPECT_GE(fd, 0) << err;
        return fd;
    }

    /**
     * Read until the server closes the connection.  Returns the bytes
     * read; @p closed reports an orderly EOF or reset, as opposed to
     * the receive timeout expiring with the connection still open.
     */
    static std::string
    readToClose(int fd, bool *closed = nullptr)
    {
        std::string resp;
        char buf[4096];
        long got;
        while ((got = net::recvSome(fd, buf, sizeof(buf))) > 0)
            resp.append(buf, static_cast<size_t>(got));
        if (closed != nullptr)
            *closed = got == 0 || errno == ECONNRESET;
        return resp;
    }

    /** One-shot request of raw @p bytes; the raw response. */
    static std::string
    exchange(uint16_t port, const std::string &bytes)
    {
        int fd = dial(port);
        if (fd < 0)
            return "connect failed";
        net::sendAll(fd, bytes.data(), bytes.size());
        std::string resp = readToClose(fd);
        net::closeFd(fd);
        return resp;
    }

    static std::string
    get(uint16_t port, const std::string &target)
    {
        return exchange(port, "GET " + target +
                                  " HTTP/1.1\r\nHost: localhost\r\n"
                                  "Connection: close\r\n\r\n");
    }

    /** A query-holding execute hook and the means to release it. */
    struct Hold
    {
        std::mutex mu;
        std::condition_variable cv;
        size_t entered = 0;
        bool release = false;

        std::function<void()>
        hook()
        {
            return [this] {
                std::unique_lock<std::mutex> lock(mu);
                ++entered;
                cv.notify_all();
                cv.wait(lock, [this] { return release; });
            };
        }

        void
        awaitEntered(size_t n)
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return entered >= n; });
        }

        void
        open()
        {
            {
                std::lock_guard<std::mutex> lock(mu);
                release = true;
            }
            cv.notify_all();
        }
    };
};

TEST_F(HttpEndpoint, MetricsAndHealthz)
{
    World w;
    server::Server srv(*w.engine, httpConfig());
    ASSERT_EQ(srv.start(), "");
    ASSERT_GT(srv.httpPort(), 0);
    EXPECT_NE(srv.httpPort(), srv.port());

    // Seed at least one counter so the exposition is non-trivial.
    DVP_COUNTER_INC("dvp_http_test_counter_total");
    uint64_t wire_conns =
        obs::Registry::global()
            .counter("dvp_server_connections_total")
            .value();

    std::string metrics = get(srv.httpPort(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics.find("# TYPE dvp_http_test_counter_total "
                           "counter"),
              std::string::npos);

    std::string health = get(srv.httpPort(), "/healthz");
    EXPECT_EQ(health, "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                      "Content-Length: 3\r\nConnection: close\r\n\r\n"
                      "ok\n");

    std::string missing = get(srv.httpPort(), "/nope");
    EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

    // Scrapes are not wire connections: every wire counter keeps its
    // meaning.
    EXPECT_EQ(srv.stats().connections, 0u);
    EXPECT_EQ(obs::Registry::global()
                  .counter("dvp_server_connections_total")
                  .value(),
              wire_conns);
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.get("connections_total"), 1u);
    EXPECT_EQ(st.get("sessions_active"), 1u);
    c.close();

    srv.stop();
    EXPECT_FALSE(srv.running());
}

TEST_F(HttpEndpoint, ByteDribbledGetIsServed)
{
    World w;
    server::Server srv(*w.engine, httpConfig());
    ASSERT_EQ(srv.start(), "");

    int fd = dial(srv.httpPort());
    ASSERT_GE(fd, 0);
    const std::string req = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    for (char ch : req) {
        ASSERT_TRUE(net::sendAll(fd, &ch, 1));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string resp = readToClose(fd);
    net::closeFd(fd);
    EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << resp;
    EXPECT_EQ(resp.substr(resp.size() - 3), "ok\n");
    srv.stop();
}

TEST_F(HttpEndpoint, OversizedRequestIsClosedWithoutResponse)
{
    World w;
    server::Server srv(*w.engine, httpConfig());
    ASSERT_EQ(srv.start(), "");

    // Over the 8 KiB request cap and no blank line: dropped unanswered.
    std::string req = "GET /metrics HTTP/1.1\r\nX-Pad: ";
    req.append(9000, 'a');
    int fd = dial(srv.httpPort());
    ASSERT_GE(fd, 0);
    net::sendAll(fd, req.data(), req.size());
    bool closed = false;
    std::string resp = readToClose(fd, &closed);
    net::closeFd(fd);
    EXPECT_TRUE(closed);
    EXPECT_EQ(resp, "");

    // The loop keeps serving.
    EXPECT_NE(get(srv.httpPort(), "/healthz").find("200 OK"),
              std::string::npos);
    srv.stop();
}

TEST_F(HttpEndpoint, WrongMethodAndMalformedRequestLine)
{
    World w;
    server::Server srv(*w.engine, httpConfig());
    ASSERT_EQ(srv.start(), "");

    std::string post =
        exchange(srv.httpPort(), "POST /metrics HTTP/1.1\r\n\r\n");
    EXPECT_EQ(post.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u)
        << post;
    EXPECT_NE(post.find("only GET is supported\n"), std::string::npos);

    std::string bad = exchange(srv.httpPort(), "GARBAGE\r\n\r\n");
    EXPECT_EQ(bad.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << bad;
    EXPECT_NE(bad.find("bad request\n"), std::string::npos);
    srv.stop();
}

TEST_F(HttpEndpoint, StalledConnectionIsReaped)
{
    World w;
    server::Config scfg = httpConfig();
    scfg.idleTimeoutMs = 150;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    // Half a request line, then silence: the idle deadline closes it
    // well inside the 5 s receive timeout, with no response.
    int fd = dial(srv.httpPort());
    ASSERT_GE(fd, 0);
    const std::string part = "GET /metr";
    net::sendAll(fd, part.data(), part.size());
    auto t0 = std::chrono::steady_clock::now();
    bool closed = false;
    std::string resp = readToClose(fd, &closed);
    auto waited = std::chrono::steady_clock::now() - t0;
    net::closeFd(fd);
    EXPECT_TRUE(closed);
    EXPECT_EQ(resp, "");
    EXPECT_LT(waited, std::chrono::seconds(4));
    srv.stop();
}

TEST_F(HttpEndpoint, MetricsAnswerWhileEveryWorkerIsHeld)
{
    World w;
    server::Config scfg = httpConfig();
    scfg.workers = 2;
    server::Server srv(*w.engine, scfg);
    Hold hold;
    srv.setExecuteHook(hold.hook());
    ASSERT_EQ(srv.start(), "");

    client::Client a, b;
    ASSERT_EQ(a.connect("127.0.0.1", srv.port(), "a"), "");
    ASSERT_EQ(b.connect("127.0.0.1", srv.port(), "b"), "");
    std::thread qa([&] { EXPECT_TRUE(a.query("SELECT str1 FROM t").ok); });
    std::thread qb([&] { EXPECT_TRUE(b.query("SELECT num FROM t").ok); });
    hold.awaitEntered(2);
    ASSERT_EQ(srv.inflight(), 2u);

    // Scrapes are answered on the loop, not by a worker.
    std::string metrics = get(srv.httpPort(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("dvp_server_requests_total"),
              std::string::npos);

    hold.open();
    qa.join();
    qb.join();
    a.close();
    b.close();
    srv.stop();
}

TEST_F(HttpEndpoint, HealthzAnswersDuringDrainAndRefusesAfterStop)
{
    World w;
    server::Config scfg = httpConfig();
    scfg.workers = 1;
    server::Server srv(*w.engine, scfg);
    Hold hold;
    srv.setExecuteHook(hold.hook());
    ASSERT_EQ(srv.start(), "");
    const uint16_t port = srv.port(), http_port = srv.httpPort();

    client::Client a;
    ASSERT_EQ(a.connect("127.0.0.1", port, "a"), "");
    std::thread slow([&] {
        client::Result r = a.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok) << r.error;
    });
    hold.awaitEntered(1);

    srv.requestStop();
    // Wait for the drain to close the wire listener.
    for (int i = 0; i < 200; ++i) {
        std::string err;
        int fd = net::connectTcp("127.0.0.1", port, 200, &err);
        if (fd < 0)
            break;
        net::closeFd(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(srv.drained());
    std::string health = get(http_port, "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok\n"), std::string::npos);

    hold.open();
    slow.join();
    srv.stop();
    EXPECT_TRUE(srv.drained());

    std::string err;
    int fd = net::connectTcp("127.0.0.1", http_port, 200, &err);
    if (fd >= 0)
        net::closeFd(fd);
    EXPECT_LT(fd, 0);
}

TEST_F(ServerWorld, RepeatedDrainsUnderLoadFinishPromptly)
{
    // The loop polls with no tick, so a drain completes only when the
    // last worker's wake reaches it.  Stop servers while clients keep
    // statements in flight: every stop() must return, and promptly.
    World w;
    for (int round = 0; round < 10; ++round) {
        server::Config scfg;
        scfg.workers = 2;
        server::Server srv(*w.engine, scfg);
        ASSERT_EQ(srv.start(), "");
        std::atomic<bool> quit{false};
        std::vector<std::thread> clients;
        for (int i = 0; i < 3; ++i)
            clients.emplace_back([&] {
                client::Client c;
                if (!c.connect("127.0.0.1", srv.port(), "d").empty())
                    return;
                while (!quit.load(std::memory_order_relaxed))
                    if (!c.query("SELECT COUNT(*) FROM t GROUP BY "
                                 "thousandth")
                             .ok)
                        break;
            });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        auto t0 = std::chrono::steady_clock::now();
        srv.stop();
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(5))
            << "round " << round;
        EXPECT_EQ(srv.inflight(), 0u);
        quit.store(true, std::memory_order_relaxed);
        for (auto &th : clients)
            th.join();
    }
}

TEST_F(ServerWorld, WaitDrainedBlocksUntilTheDrainCompletes)
{
    // A daemon's main thread parks in waitDrained() until a
    // signal-triggered drain ends: it stays blocked while an admitted
    // statement is held in flight, and returns once that statement
    // answers, with no stop() call and no polling.
    World w;
    server::Config scfg;
    scfg.workers = 1;
    server::Server srv(*w.engine, scfg);

    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, release = false;
    srv.setExecuteHook([&] {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_EQ(srv.start(), "");

    client::Client a;
    ASSERT_EQ(a.connect("127.0.0.1", srv.port(), "a"), "");
    std::thread slow([&] {
        client::Result r = a.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok) << r.error;
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }

    std::future<void> waiter =
        std::async(std::launch::async, [&] { srv.waitDrained(); });
    srv.requestStop();
    EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(200)),
              std::future_status::timeout);
    EXPECT_FALSE(srv.drained());

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    ASSERT_EQ(waiter.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_TRUE(srv.drained());
    slow.join();
    srv.stop();
}

// ---------------------------------------------------------------------
// Slow-query log.
// ---------------------------------------------------------------------

/** The unsigned value after "@p key": in an NDJSON line. */
uint64_t
jsonField(const std::string &line, const std::string &key)
{
    size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) {
        ADD_FAILURE() << "no " << key << " in " << line;
        return 0;
    }
    return std::strtoull(line.c_str() + at + key.size() + 3, nullptr, 10);
}

TEST_F(ServerWorld, SlowQueryLogWritesNdjsonRecords)
{
    // A positive threshold crossed by construction, not by engine
    // speed: the execute hook runs inside the execute stage the gate
    // measures, so holding the join there past slowMs must log it,
    // while an unheld cheap statement stays far under the threshold.
    World w;
    std::string path = "slow_query_test.ndjson";
    std::remove(path.c_str());

    server::Config scfg;
    scfg.slowMs = 400;
    scfg.slowLogPath = path;
    server::Server srv(*w.engine, scfg);
    std::atomic<bool> hold{false};
    srv.setExecuteHook([&] {
        if (hold.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(450));
    });
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    c.setTraceId(0x5105105105105105ull);
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");

    const std::string join =
        "SELECT * FROM t AS l INNER JOIN t AS r "
        "ON l.nested_obj.str = r.str1 "
        "WHERE l.num BETWEEN 0 AND 999999";
    ASSERT_TRUE(c.query("SELECT str1 FROM t WHERE num BETWEEN 0 AND 9")
                    .ok);
    hold.store(true);
    ASSERT_TRUE(c.query(join).ok);
    hold.store(false);
    c.close();
    srv.stop();

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    ASSERT_EQ(lines.size(), 1u) << "only the held join crosses 400 ms";
    const std::string &line = lines[0];
    // One NDJSON object per line with the documented fields.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"statement\":\"SELECT * FROM t AS l"),
              std::string::npos);
    EXPECT_NE(line.find("\"trace_id\":\"5105105105105105\""),
              std::string::npos);
    EXPECT_NE(line.find("\"exec_ns\":"), std::string::npos);
    EXPECT_GE(jsonField(line, "exec_ns"), 400000000u);
    EXPECT_NE(line.find("\"layout_epoch\":"), std::string::npos);
    EXPECT_NE(line.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(line.find("\"rows_out\":"), std::string::npos);
    EXPECT_GT(jsonField(line, "rows_out"), 0u);
    EXPECT_NE(line.find("\"join_materialize_ns\":"), std::string::npos);
    EXPECT_NE(line.find("\"result_rows\":"), std::string::npos);
    EXPECT_NE(line.find("\"result_bytes\":"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(ServerWorld, SlowMsZeroLogsEveryStatementWithResultSizes)
{
    World w;
    std::string path = "slow_query_all_test.ndjson";
    std::remove(path.c_str());

    server::Config scfg;
    scfg.slowMs = 0; // every statement
    scfg.slowLogPath = path;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    const std::vector<std::string> stmts = {
        "SELECT str1, num FROM t",
        "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999",
        "SELECT * FROM t WHERE str1 = 'no such value'",
    };
    std::vector<size_t> rows;
    for (const std::string &sql : stmts) {
        client::Result r = c.query(sql);
        ASSERT_TRUE(r.ok) << r.error;
        rows.push_back(r.rows.size());
    }
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok);
    c.close();
    srv.stop();

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), stmts.size());
    uint64_t total_rows = 0, total_bytes = 0;
    for (size_t i = 0; i < stmts.size(); ++i) {
        // Workers append after answering, so match lines by statement.
        auto line = std::find_if(
            lines.begin(), lines.end(), [&](const std::string &l) {
                return l.find("\"statement\":\"" + stmts[i] + "\"") !=
                       std::string::npos;
            });
        ASSERT_NE(line, lines.end()) << stmts[i];
        EXPECT_EQ(jsonField(*line, "result_rows"), rows[i]);
        // Even an empty result ships its header and trailer.
        EXPECT_GT(jsonField(*line, "result_bytes"), 0u);
        total_rows += rows[i];
        total_bytes += jsonField(*line, "result_bytes");
    }
    // STATS counts the same rows and bytes.
    EXPECT_EQ(st.get("result_rows_total"), total_rows);
    EXPECT_EQ(st.get("result_bytes_total"), total_bytes);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The server's slot encoder against the Cell codec.
// ---------------------------------------------------------------------

/** The cells a client decodes from @p rs, built one Cell at a time. */
std::vector<std::vector<net::Cell>>
cellsOf(const engine::ResultSet &rs, const storage::Dictionary &dict)
{
    std::vector<std::vector<net::Cell>> rows;
    for (size_t i = 0; i < rs.rowCount(); ++i) {
        std::vector<net::Cell> row;
        for (storage::Slot s : rs.row(i)) {
            net::Cell c;
            if (storage::isStringSlot(s)) {
                c.kind = net::Cell::Kind::Str;
                c.s = dict.text(storage::decodeString(s));
            } else if (!storage::isNull(s)) {
                c.kind = net::Cell::Kind::Int;
                c.i = s;
            }
            row.push_back(std::move(c));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/** The RESULT frame the Cell codec builds for @p meta + @p rs. */
std::string
cellCodecFrame(const net::ResultBody &meta, const engine::ResultSet *rs,
               const storage::Dictionary &dict, uint32_t level)
{
    net::ResultBody body = meta;
    if (rs != nullptr)
        body.rows = cellsOf(*rs, dict);
    return net::encodeFrame(net::FrameType::Result,
                            net::encodeResult(body, level));
}

TEST(SlotEncoder, MatchesTheCellCodecByteForByte)
{
    using storage::kNullSlot;
    storage::Dictionary dict;
    storage::Slot hello = storage::encodeString(dict.intern("hello"));
    storage::Slot empty = storage::encodeString(dict.intern(""));
    engine::ResultSet rs(4);
    rs.addRow({42, hello, kNullSlot, empty});
    rs.addRow({kNullSlot, kNullSlot, -7, hello});
    rs.addRow({0, empty, INT64_MIN + 1, kNullSlot});
    rs.oids = {3, 5, 8};
    rs.checksum = 0x77;

    net::ResultBody meta;
    meta.columns = {"oid", "a", "b", "c", "d"};
    meta.oids = rs.oids;
    meta.digest = rs.digest();
    meta.checksum = rs.checksum;
    meta.execNs = 1234;
    meta.hasTraceId = true;
    meta.traceId = 0xfeed;
    meta.opStats = {{"rows_out", 3}, {"rows_scanned", 10}};

    engine::ResultSet none(4);
    net::ResultBody none_meta;
    none_meta.columns = meta.columns;
    none_meta.digest = none.digest();

    net::ResultBody msg;
    msg.kind = net::ResultBody::Kind::Message;
    msg.message = "ingested 3 documents";
    msg.execNs = 99;

    std::string frames[2];
    for (uint32_t level : {net::kFeatureBase, net::kFeatureTrace}) {
        SCOPED_TRACE(level);
        std::optional<std::string> got =
            server::encodeResultFrame(meta, &rs, &dict, level);
        ASSERT_TRUE(got);
        EXPECT_EQ(*got, cellCodecFrame(meta, &rs, dict, level));
        frames[level - 1] = *got;

        got = server::encodeResultFrame(none_meta, &none, &dict, level);
        ASSERT_TRUE(got);
        EXPECT_EQ(*got, cellCodecFrame(none_meta, &none, dict, level));

        got = server::encodeResultFrame(msg, nullptr, nullptr, level);
        ASSERT_TRUE(got);
        EXPECT_EQ(*got, cellCodecFrame(msg, nullptr, dict, level));
    }
    // Level 2 appends the TLV block; level 1 stays pre-TLV.
    EXPECT_LT(frames[0].size(), frames[1].size());

    // And the frame decodes to the cells the slots stand for.
    net::FrameAssembler as;
    as.feed(frames[1].data(), frames[1].size());
    net::Frame f;
    ASSERT_TRUE(as.next(f));
    net::ResultBody back;
    ASSERT_TRUE(net::decodeResult(f.payload, back));
    ASSERT_EQ(back.rows.size(), 3u);
    EXPECT_EQ(back.rows[0][1].s, "hello");
    EXPECT_EQ(back.rows[0][3].kind, net::Cell::Kind::Str);
    EXPECT_EQ(back.rows[0][3].s, "");
    EXPECT_EQ(back.rows[1][0].kind, net::Cell::Kind::Null);
    EXPECT_EQ(back.rows[1][2].i, -7);
    EXPECT_EQ(back.oids, rs.oids);
    EXPECT_EQ(back.digest, rs.digest());
    EXPECT_EQ(back.traceId, 0xfeedu);
}

TEST(SlotEncoder, StopsWithNoFrameOncePastTheCap)
{
    storage::Dictionary dict;
    storage::Slot str = storage::encodeString(dict.intern("abcdefgh"));
    engine::ResultSet rs(2);
    for (int64_t i = 0; i < 1000; ++i)
        rs.addRow({i, str});
    net::ResultBody meta;
    meta.columns = {"oid", "n", "s"};
    meta.oids.assign(1000, 1);

    std::optional<std::string> full =
        server::encodeResultFrame(meta, &rs, &dict, net::kFeatureBase);
    ASSERT_TRUE(full);
    const size_t payload = full->size() - net::kHeaderBytes;
    // The cap bounds the payload exactly, trailer included.
    EXPECT_TRUE(server::encodeResultFrame(meta, &rs, &dict,
                                          net::kFeatureBase, payload));
    EXPECT_FALSE(server::encodeResultFrame(meta, &rs, &dict,
                                           net::kFeatureBase,
                                           payload - 1));
    EXPECT_FALSE(server::encodeResultFrame(meta, &rs, &dict,
                                           net::kFeatureBase, 1024));
    // The default cap is the frame limit the client enforces.
    EXPECT_TRUE(server::encodeResultFrame(meta, &rs, &dict,
                                          net::kFeatureBase));
    EXPECT_STREQ(net::errorCodeName(net::ErrorCode::ResultTooLarge),
                 "RESULT_TOO_LARGE");
    EXPECT_EQ(static_cast<uint16_t>(net::ErrorCode::ResultTooLarge), 8);
}

} // namespace
} // namespace dvp
