// wirebench: the repository benchmark. Drives a real net::Server over TCP
// from closed-loop client connections, with SEPTIC in prevention mode, on
// one of three seeded workloads (workload.h), checks every reply, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   wirebench --workload <point_hot|mixed_cold|commit_durable> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Everything is timed from here, around calls into public functions; the
// server is not instrumented. The traced run records one span per wire
// call, then replays a fixed sample of the same statements in-process on a
// twin engine built by the same setup, timing each layer's public call as
// a child span. Spans are written to <work-dir>/spans-<workload>.tsv at
// exit. README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/unicode.h"
#include "engine/error.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "net/client.h"
#include "net/server.h"
#include "sqlcore/lexer.h"
#include "workload.h"

namespace {

using namespace wirebench;
namespace engine = septic::engine;
namespace sql = septic::sql;
using Clock = std::chrono::steady_clock;

// The measured time is split into kWindows windows, each on a freshly
// set-up fixture; e2e metrics, setup_s included, are medians over them.
constexpr int kWindows = 10;
constexpr int kWarmUnits = 10;       // per connection, before each window
constexpr int kDigestUnits = 1000;   // per connection, in the stream digest
constexpr size_t kReplayStmts = 2000;  // statements replayed on the twin
constexpr int kMaxRetries = 16;      // CONFLICT retries of one transaction

int64_t ns_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

struct ProcUsage {
  double cpu_us = 0;
  int64_t ctx_switches = 0;
};

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

long proc_status_field(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  long value = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::atol(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Log-linear latency histogram in the style of HdrHistogram: exact below
/// 2^kSubBits ns, then 2^(kSubBits-1) buckets per power of two (0.2%
/// resolution). Fixed size, so the clients' own memory does not grow with
/// the run and rss_mb measures the server.
class Histogram {
 public:
  static constexpr int kSubBits = 10;
  static constexpr int kMaxBits = 40;  // ~18 minutes in ns

  void record(int64_t ns) {
    ++counts_[index(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
    ++total_;
  }
  void merge(const Histogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  uint64_t count() const { return total_; }

  /// Nearest-rank percentile, as the midpoint of its bucket, in us.
  double percentile_us(double p) const {
    if (total_ == 0) return 0;
    uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(total_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i) / 1e3;
    }
    return midpoint(counts_.size() - 1) / 1e3;
  }

 private:
  static constexpr uint64_t kLinear = uint64_t{1} << kSubBits;
  static constexpr uint64_t kHalf = kLinear / 2;

  static size_t index(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = std::min(msb, kMaxBits) - kSubBits + 1;
    const uint64_t m = std::min<uint64_t>(v >> shift, kLinear - 1);
    return static_cast<size_t>(kLinear + static_cast<uint64_t>(shift - 1) * kHalf + (m - kHalf));
  }
  static double midpoint(size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const uint64_t k = i - kLinear;
    const int shift = static_cast<int>(k / kHalf) + 1;
    const uint64_t m = k % kHalf + kHalf;
    return (static_cast<double>(m << shift) + static_cast<double>((m + 1) << shift)) / 2;
  }

  std::vector<uint32_t> counts_ =
      std::vector<uint32_t>(kLinear + (kMaxBits - kSubBits + 1) * kHalf, 0);
  uint64_t total_ = 0;
};

// --- engine counters, snapshotted at both ends of each measured window ------

using Counters = std::map<std::string, uint64_t>;

Counters snapshot(const Fixture& fx) {
  const engine::DigestCacheStats dc = fx.db->digest_cache_stats();
  const septic::core::SepticStats ss = fx.septic->stats();
  const engine::txn::TxnStats tx = fx.db->txn_stats();
  const septic::storage::wal::DurabilityStats du = fx.db->durability_stats();
  return {
      {"digest.hits", dc.hits},
      {"digest.misses", dc.misses},
      {"digest.evictions", dc.evictions},
      {"digest.invalidations", dc.invalidations},
      {"engine.blocked", fx.db->blocked_count()},
      {"engine.prepared_reverdicts", fx.db->prepared_reverdicts()},
      {"txn.begun", tx.begun},
      {"txn.conflicts", tx.conflicts},
      {"septic.queries_seen", ss.queries_seen},
      {"septic.dropped", ss.dropped},
      {"septic.sqli_detected", ss.sqli_detected},
      {"septic.stored_detected", ss.stored_detected},
      {"wal.sync_calls", du.wal.sync_calls},
      {"wal.fsyncs", du.wal.fsyncs},
      {"wal.bytes_appended", du.wal.bytes_appended},
      {"checkpoint.count", du.checkpoints},
  };
}

// --- one measured window on a fresh fixture -------------------------------------

/// One wire call recorded in a traced window.
struct WireSpan {
  uint64_t id;
  int client;
  uint32_t unit;  // index into the client's stream
  uint8_t idx;    // statement within the unit
  int64_t start_ns, end_ns;  // since its window opened
};

struct ClientLog {
  // Latency of each unit (one statement, or one whole transaction with its
  // CONFLICT retries), and per statement of the write and EXEC classes.
  Histogram units, writes, execs;
  std::vector<WireSpan> spans;
  uint64_t attempted = 0, failed = 0, injected = 0, acked_commits = 0;
  uint64_t n_exec = 0, n_write = 0, n_txn = 0;
  uint64_t conflicts = 0, warm_failed = 0, warm_acked = 0;
  bool injected_executed = false;
  double cpu_us = 0;
  std::string first_error;
};

enum class Outcome { kOk, kConflict, kFail };

Outcome check_reply(const Stmt& s, bool remote_error, const std::string& payload,
                    bool& injected_executed) {
  if (s.expect == Expect::kBlocked) {
    if (remote_error && payload.rfind("BLOCKED", 0) == 0) return Outcome::kOk;
    if (!remote_error) injected_executed = true;
    return Outcome::kFail;
  }
  if (remote_error) {
    if (s.expect == Expect::kCommit && payload.rfind("CONFLICT", 0) == 0) {
      return Outcome::kConflict;
    }
    return Outcome::kFail;
  }
  switch (s.expect) {
    case Expect::kRows: {
      size_t nl = payload.find('\n');
      return nl != std::string::npos && payload.compare(nl + 1, std::string::npos, s.rows) == 0
                 ? Outcome::kOk
                 : Outcome::kFail;
    }
    case Expect::kAffected: {
      std::string want = "affected=" + std::to_string(s.affected) + " ";
      return payload.rfind(want, 0) == 0 ? Outcome::kOk : Outcome::kFail;
    }
    default:
      return Outcome::kOk;
  }
}

struct Window {
  std::vector<ClientLog> logs;
  Counters delta;  // engine counters, after minus before
  ProcUsage usage_before, usage_after;
  long threads = 0;
};

/// Connects the workload's clients, sends each connection's first
/// kWarmUnits units unmeasured, then runs every connection's stream for
/// `window_ns`, checking every reply. `traced` records a WireSpan per call.
Window run_window(const Workload& wl, const Fixture& fx, uint16_t port, int64_t window_ns,
                  bool traced, std::atomic<uint64_t>& span_ids) {
  const int n = wl.connections();
  const std::string tpl = wl.exec_template();
  Window res;
  res.logs.resize(static_cast<size_t>(n));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point t0;  // written before `go` is released

  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = res.logs[static_cast<size_t>(c)];
      if (traced) log.spans.reserve(static_cast<size_t>(window_ns / 25000 + 1024));
      bool ready_signalled = false;
      try {
        septic::net::Client client(port);
        const uint64_t handle = tpl.empty() ? 0 : client.prepare(tpl);
        Rng rng = wl.stream_rng(c);
        Unit u;
        std::vector<septic::sql::Value> params(1);
        uint32_t seq = 0;

        // Sends one unit; retries a transaction whose COMMIT conflicts.
        auto send_unit = [&](bool measured) {
          const Clock::time_point u0 = Clock::now();
          for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
            bool retry = false;
            for (size_t i = 0; i < u.size; ++i) {
              const Stmt& s = u.stmts[i];
              std::string payload;
              bool remote_error = false;
              const Clock::time_point q0 = Clock::now();
              try {
                if (s.op == Op::kExec) {
                  params[0] = septic::sql::Value(s.param);
                  payload = client.execute(handle, params);
                } else {
                  payload = client.query(s.sql);
                }
              } catch (const septic::net::RemoteError& e) {
                remote_error = true;
                payload = e.what();
              }
              const Clock::time_point q1 = Clock::now();
              const Outcome out = check_reply(s, remote_error, payload, log.injected_executed);
              if (out == Outcome::kFail && log.first_error.empty()) {
                log.first_error = (s.op == Op::kExec ? "EXEC " + std::to_string(s.param) : s.sql) +
                                  " -> " + payload.substr(0, 200);
              }
              if (s.expect == Expect::kCommit && out == Outcome::kOk) {
                ++(measured ? log.acked_commits : log.warm_acked);
              }
              if (measured) {
                const int64_t lat = ns_since(q0, q1);
                if (s.write) {
                  log.writes.record(lat);
                  ++log.n_write;
                }
                if (s.op == Op::kExec) {
                  log.execs.record(lat);
                  ++log.n_exec;
                }
                if (s.in_txn) ++log.n_txn;
                if (traced) {
                  log.spans.push_back({span_ids.fetch_add(1, std::memory_order_relaxed), c, seq,
                                       static_cast<uint8_t>(i), ns_since(t0, q0),
                                       ns_since(t0, q1)});
                }
                ++log.attempted;
                if (s.injected) ++log.injected;
                if (out == Outcome::kFail) ++log.failed;
                if (out == Outcome::kConflict) ++log.conflicts;
              } else if (out == Outcome::kFail) {
                ++log.warm_failed;
              }
              if (out == Outcome::kConflict) {
                retry = true;
                break;
              }
              if (out == Outcome::kFail && s.in_txn && s.expect != Expect::kCommit) {
                try {
                  client.query("ROLLBACK");
                } catch (const septic::net::RemoteError&) {
                }
                break;
              }
            }
            if (!retry) break;
          }
          if (measured) log.units.record(ns_since(u0, Clock::now()));
        };

        for (; seq < static_cast<uint32_t>(kWarmUnits); ++seq) {
          wl.next_unit(rng, u);
          send_unit(false);
        }
        ready.fetch_add(1);
        ready_signalled = true;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const double cpu0 = thread_cpu_us();
        for (; ns_since(t0, Clock::now()) < window_ns; ++seq) {
          wl.next_unit(rng, u);
          send_unit(true);
        }
        log.cpu_us = thread_cpu_us() - cpu0;
        client.quit();
      } catch (const std::exception& e) {
        ++log.failed;
        if (log.first_error.empty()) log.first_error = std::string("transport: ") + e.what();
      }
      if (!ready_signalled) ready.fetch_add(1);
    });
  }
  while (ready.load() < n) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  res.threads = proc_status_field("Threads") - n - 1;
  const Counters before = snapshot(fx);
  res.usage_before = proc_usage();
  t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  res.usage_after = proc_usage();
  for (const auto& [name, value] : snapshot(fx)) res.delta[name] = value - before.at(name);
  return res;
}

// --- the traced replay on a twin engine ----------------------------------------

struct SpanOut {
  uint64_t id, parent;
  std::string name;
  int64_t start_ns, end_ns;
};

class Tracer {
 public:
  Tracer(Clock::time_point origin, uint64_t first_id) : origin_(origin), next_id_(first_id) {}

  /// Opens a span under `parent` that close() ends; children recorded in
  /// between with time() name its id as their parent.
  uint64_t open(uint64_t parent, const char* name) {
    open_ = spans.size();
    spans.push_back({next_id_, parent, name, ns_since(origin_, Clock::now()), 0});
    return next_id_++;
  }
  void close() { spans[open_].end_ns = ns_since(origin_, Clock::now()); }

  /// Runs f as a child span of `parent`; records its duration under
  /// `name` for the per-layer medians and returns it in microseconds.
  template <typename F>
  double time(uint64_t parent, const char* name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    spans.push_back({next_id_++, parent, name, ns_since(origin_, t0), ns_since(origin_, t1)});
    const double us = static_cast<double>(ns_since(t0, t1)) / 1e3;
    durations[name].push_back(us);
    return us;
  }

  std::vector<SpanOut> spans;
  std::map<std::string, std::vector<double>> durations;

 private:
  Clock::time_point origin_;
  uint64_t next_id_;
  size_t open_ = 0;
};

struct ReplayResult {
  std::vector<double> wire_us, engine_us;  // per sampled statement, same order
  double parse_verdict_us = 0, engine_total_us = 0;
  size_t errors = 0;
};

/// Replays sampled statements on a twin engine, one Session per live
/// connection, timing each public layer call the live path makes for them.
class Replayer {
 public:
  Replayer(const Workload& wl, Fixture& twin, Tracer& tr)
      : db_(*twin.db), septic_(*twin.septic), tr_(tr), tpl_(wl.exec_template()) {
    for (int c = 0; c < wl.connections(); ++c) {
      sessions_.push_back(std::make_unique<engine::Session>("net-client"));
      if (!tpl_.empty()) handles_.push_back(db_.prepare(*sessions_.back(), tpl_));
    }
    if (!tpl_.empty()) {
      // The template's parse, stack and verdict, as PREPARE computed them.
      tpl_parsed_ = sql::parse(septic::common::server_charset_convert(tpl_));
      tpl_stack_ = sql::build_item_stack(tpl_parsed_->statement);
      tpl_decision_ =
          septic_.on_query(engine::QueryEvent{*tpl_parsed_, tpl_stack_, 0, "net-client", false});
    }
  }

  void replay(const Stmt& s, int client, uint64_t sid, ReplayResult& out) {
    engine::Session& session = *sessions_[static_cast<size_t>(client)];
    double engine_us = 0;
    if (s.op == Op::kExec) {
      std::vector<sql::Value> params{sql::Value(s.param)};
      engine::QueryEvent ev{*tpl_parsed_, tpl_stack_, session.id(), session.user(), false};
      tr_.time(sid, "septic.prepared_exec", [&] {
        septic_.on_prepared_exec(ev, tpl_decision_, tpl_decision_.cache_payload, params);
      });
      engine_us = tr_.time(sid, "engine.execute_prepared", [&] {
        try {
          db_.execute_prepared(session, *handles_[static_cast<size_t>(client)], params);
        } catch (const engine::DbError&) {
          ++out.errors;
        }
      });
    } else {
      replay_pipeline(s, session, sid, out);
      engine_us = tr_.time(sid, "engine.execute", [&] {
        try {
          db_.execute(session, s.sql);
        } catch (const engine::DbError& e) {
          if (!(s.injected && e.code() == engine::ErrorCode::kBlocked)) ++out.errors;
        }
      });
    }
    out.engine_us.push_back(engine_us);
    out.engine_total_us += engine_us;
  }

 private:
  /// The calls Database::execute makes for these bytes, in its order,
  /// against the twin's state just before it runs them.
  void replay_pipeline(const Stmt& s, engine::Session& session, uint64_t sid,
                       ReplayResult& out) {
    std::string conv;
    tr_.time(sid, "common.charset", [&] { conv = septic::common::server_charset_convert(s.sql); });
    engine::QueryDigestCache::EntryPtr entry;
    tr_.time(sid, "engine.digest_lookup", [&] { entry = db_.digest_cache()->lookup(conv); });
    std::optional<sql::ParsedQuery> parsed;
    const sql::Statement* stmt = nullptr;
    bool allowed = true;
    if (entry && entry->has_verdict) {
      engine::QueryEvent ev{*entry->parsed, *entry->stack, session.id(), session.user(),
                            s.in_txn};
      tr_.time(sid, "septic.replay",
               [&] { septic_.on_query_replayed(ev, entry->decision, entry->payload); });
      stmt = &entry->parsed->statement;
    } else {
      tr_.time(sid, "sqlcore.lex", [&] { sql::lex(conv); });
      out.parse_verdict_us += tr_.time(sid, "sqlcore.parse", [&] { parsed = sql::parse(conv); });
      stmt = &parsed->statement;
      if (sql::statement_kind(*stmt) != sql::StatementKind::kTransaction) {
        tr_.time(sid, "engine.validate", [&] { engine::validate_statement(db_.catalog(), *stmt); });
        sql::ItemStack stack;
        tr_.time(sid, "sqlcore.item_stack", [&] { stack = sql::build_item_stack(*stmt); });
        engine::QueryEvent ev{*parsed, stack, session.id(), session.user(), s.in_txn};
        engine::InterceptDecision d;
        out.parse_verdict_us += tr_.time(sid, "septic.on_query", [&] { d = septic_.on_query(ev); });
        allowed = d.allow;
      }
    }
    if (!allowed) return;
    if (const auto* sel = std::get_if<sql::SelectPtr>(stmt)) {
      const sql::SelectStmt& q = **sel;
      if (q.from.size() == 1 && q.joins.empty() && q.unions.empty()) {
        if (const septic::storage::Table* t = db_.catalog().find(q.from[0].name)) {
          tr_.time(sid, "engine.plan", [&] { engine::plan_select_access(*t, q); });
        }
      }
      // The versioned, self-locking read the live autocommit path makes; on
      // the quiescent twin kTsMax sees every committed row.
      engine::ExecContext ctx{db_.catalog(), scratch_, engine::txn::kTsMax, nullptr, 0, true};
      tr_.time(sid, "engine.exec", [&] { engine::execute_statement(ctx, *stmt); });
    } else if (const auto* upd = std::get_if<sql::UpdateStmt>(stmt)) {
      if (const septic::storage::Table* t = db_.catalog().find(upd->table)) {
        tr_.time(sid, "engine.plan", [&] { engine::plan_where_access(*t, upd->where.get()); });
      }
    }
  }

  engine::Database& db_;
  septic::core::Septic& septic_;
  Tracer& tr_;
  const std::string tpl_;
  std::vector<std::unique_ptr<engine::Session>> sessions_;
  std::vector<engine::PreparedStatementPtr> handles_;
  engine::Session scratch_{"replay-exec"};
  std::optional<sql::ParsedQuery> tpl_parsed_;
  sql::ItemStack tpl_stack_;
  engine::InterceptDecision tpl_decision_;
};

/// Replays `sample` (whole units, in stream order) on `twin`.
ReplayResult replay(const Workload& wl, Fixture& twin,
                    const std::vector<const WireSpan*>& sample, Tracer& tr) {
  // Regenerate the sampled units' statement bytes from the streams.
  std::map<std::pair<int, uint32_t>, Unit> units;
  for (const WireSpan* s : sample) units[{s->client, s->unit}];
  for (int c = 0; c < wl.connections(); ++c) {
    Rng rng = wl.stream_rng(c);
    Unit u;
    uint32_t seq = 0;
    for (auto it = units.lower_bound({c, 0}); it != units.end() && it->first.first == c; ++it) {
      for (; seq <= it->first.second; ++seq) wl.next_unit(rng, u);
      it->second = u;
    }
  }

  ReplayResult out;
  Replayer replayer(wl, twin, tr);
  for (const WireSpan* ws : sample) {
    const uint64_t sid = tr.open(ws->id, "replay");
    out.wire_us.push_back(static_cast<double>(ws->end_ns - ws->start_ns) / 1e3);
    replayer.replay(units[{ws->client, ws->unit}].stmts[ws->idx], ws->client, sid, out);
    tr.close();
  }
  return out;
}

/// Whole units from the traced windows, every k-th, about kReplayStmts
/// statements, ordered by stream position. A unit traced in several
/// windows, or retried after a CONFLICT, keeps its last attempt.
std::vector<const WireSpan*> choose_sample(const std::vector<WireSpan>& spans) {
  std::map<std::pair<uint32_t, int>, std::vector<const WireSpan*>> by_unit;
  for (const WireSpan& s : spans) {
    auto& v = by_unit[{s.unit, s.client}];
    if (!v.empty() && s.idx <= v.back()->idx) v.clear();
    v.push_back(&s);
  }
  size_t stmts = 0;
  for (const auto& [key, v] : by_unit) stmts += v.size();
  const size_t stride = std::max<size_t>(1, stmts / kReplayStmts);
  std::vector<const WireSpan*> sample;
  size_t i = 0;
  for (const auto& [key, v] : by_unit) {
    if (i++ % stride == 0) sample.insert(sample.end(), v.begin(), v.end());
  }
  return sample;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of the first kDigestUnits units of every connection's stream:
/// two runs with one seed send byte-identical streams iff this matches.
uint64_t stream_digest(const Workload& wl) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int c = 0; c < wl.connections(); ++c) {
    Rng rng = wl.stream_rng(c);
    Unit u;
    for (int i = 0; i < kDigestUnits; ++i) {
      wl.next_unit(rng, u);
      for (size_t j = 0; j < u.size; ++j) {
        const Stmt& s = u.stmts[j];
        h = fnv1a(h, s.op == Op::kExec ? "EXEC " + std::to_string(s.param) : s.sql);
        h = fnv1a(h, std::string_view("\n", 1));
      }
    }
  }
  return h;
}

int usage() {
  std::fprintf(stderr,
               "usage: wirebench --workload <point_hot|mixed_cold|commit_durable> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

/// What the windows of one run add up to.
struct Totals {
  uint64_t attempted = 0, failed = 0, injected = 0, acked = 0, conflicts = 0;
  uint64_t n_exec = 0, n_write = 0, n_txn = 0;
  double client_cpu_us = 0;
  int64_t ctx_switches = 0;
  long threads = 0;
  bool injected_executed = false;
  Histogram writes, execs;
  Counters delta;
  // Per window, for the medians; traced windows apart from untraced ones.
  std::vector<double> qps, p50, p95, p99, cpu, traced_qps, traced_p50;
  std::vector<WireSpan> spans;
};

/// Folds one window into the totals and checks its exact reconciliations.
void add_window(const Workload& wl, const Fixture& fx, const Window& w, int64_t window_ns,
                bool traced, Totals& t, std::vector<std::string>& problems) {
  Histogram units;
  uint64_t stmts = 0, injected = 0, acked = 0;
  double client_cpu = 0;
  for (const ClientLog& log : w.logs) {
    stmts += log.attempted;
    injected += log.injected;
    acked += log.acked_commits;
    client_cpu += log.cpu_us;
    t.failed += log.failed;
    t.conflicts += log.conflicts;
    t.n_exec += log.n_exec;
    t.n_write += log.n_write;
    t.n_txn += log.n_txn;
    t.injected_executed |= log.injected_executed;
    units.merge(log.units);
    t.writes.merge(log.writes);
    t.execs.merge(log.execs);
    t.spans.insert(t.spans.end(), log.spans.begin(), log.spans.end());
    if (!log.first_error.empty()) problems.push_back("failed: " + log.first_error);
    if (log.warm_failed) {
      problems.push_back(std::to_string(log.warm_failed) + " warm-up statements failed");
    }
  }
  const double server_cpu = w.usage_after.cpu_us - w.usage_before.cpu_us - client_cpu;
  const double qps = static_cast<double>(stmts) / (static_cast<double>(window_ns) / 1e9);
  (traced ? t.traced_qps : t.qps).push_back(qps);
  (traced ? t.traced_p50 : t.p50).push_back(units.percentile_us(0.50));
  if (!traced) {
    t.p95.push_back(units.percentile_us(0.95));
    t.p99.push_back(units.percentile_us(0.99));
    t.cpu.push_back(ratio(server_cpu, static_cast<double>(stmts)));
  }
  t.attempted += stmts;
  t.injected += injected;
  t.acked += acked;
  t.client_cpu_us += client_cpu;
  t.ctx_switches += w.usage_after.ctx_switches - w.usage_before.ctx_switches;
  t.threads = w.threads;
  for (const auto& [name, value] : w.delta) t.delta[name] += value;

  const Counters& d = w.delta;
  if (d.at("septic.dropped") != injected || d.at("engine.blocked") != injected) {
    problems.push_back("septic.dropped=" + std::to_string(d.at("septic.dropped")) + " but " +
                       std::to_string(injected) + " injected statements were sent");
  }
  if (std::string(wl.name()) == "point_hot" && d.at("engine.prepared_reverdicts") != 0) {
    problems.push_back("engine.prepared_reverdicts=" +
                       std::to_string(d.at("engine.prepared_reverdicts")) + ", want 0");
  }
  if (fx.db->durable() && acked != d.at("wal.sync_calls")) {
    problems.push_back("acked commits " + std::to_string(acked) + " != WAL sync_calls " +
                       std::to_string(d.at("wal.sync_calls")));
  }
}

/// Builds a fixture and starts its server: the timed set-up.
std::pair<std::unique_ptr<Fixture>, std::unique_ptr<septic::net::Server>> set_up(
    const Workload& wl, const std::string& dir, std::vector<double>& setup_s) {
  septic::net::ServerOptions opts;
  opts.max_connections = 0;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Fixture> fx = wl.setup(dir);
  auto server = std::make_unique<septic::net::Server>(*fx->db, 0, opts);
  server->start();
  setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  return {std::move(fx), std::move(server)};
}

int run(int argc, char** argv) {
  std::string workload_name, work_dir = ".bench_build/wirebench";
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      workload_name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(val.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (flag == "--work-dir") {
      work_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds < 1 || (trace != 0 && trace != 1)) return usage();
  std::unique_ptr<Workload> wl = make_workload(workload_name, seed);
  if (!wl) return usage();
  const std::string wname = wl->name();

  const std::string data_root = work_dir + "/data-" + std::to_string(::getpid());
  std::filesystem::create_directories(data_root);
  struct DirGuard {
    std::string dir;
    ~DirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } data_guard{data_root};

  std::printf("# wirebench workload=%s seed=%" PRIu64 " seconds=%d trace=%d connections=%d "
              "windows=%d\n",
              wl->name(), seed, seconds, trace, wl->connections(), kWindows);
  std::printf("# stream_digest=%016" PRIx64 " (first %d units of each connection)\n",
              stream_digest(*wl), kDigestUnits);
  std::fflush(stdout);

  // The measured time is split into kWindows windows, each on a freshly
  // set-up fixture; the traced run alternates untraced and traced windows.
  const int64_t window_ns = int64_t{seconds} * 1000000000 / kWindows;
  std::vector<double> setup_s;
  std::vector<std::string> problems;
  Totals t;
  std::atomic<uint64_t> span_ids{1};
  double checkpoint_ms = 0;
  for (int r = 0; r < kWindows; ++r) {
    auto [fx, server] = set_up(*wl, data_root + "/w" + std::to_string(r), setup_s);
    const bool traced = trace && r % 2 == 1;
    Window w = run_window(*wl, *fx, server->port(), window_ns, traced, span_ids);
    server->stop();
    add_window(*wl, *fx, w, window_ns, traced, t, problems);
    uint64_t fixture_acked = 0;
    for (const ClientLog& log : w.logs) fixture_acked += log.warm_acked + log.acked_commits;
    if (trace && r == kWindows - 1 && fx->db->durable()) {
      const Clock::time_point c0 = Clock::now();
      fx->db->checkpoint_now();
      checkpoint_ms = std::chrono::duration<double, std::milli>(Clock::now() - c0).count();
    }
    const std::string final_problem = wl->check_final(*fx, fixture_acked);
    if (!final_problem.empty()) problems.push_back(final_problem);
  }
  const double rss_mb = static_cast<double>(proc_status_field("VmHWM")) / 1024.0;

  if (t.injected_executed) problems.push_back("an injected statement EXECUTED");
  const double stmts = static_cast<double>(t.attempted);
  const Counters& d = t.delta;
  const auto dv = [&d](const char* name) { return static_cast<double>(d.at(name)); };
  const double lookups = dv("digest.hits") + dv("digest.misses");
  const double hit_ratio = ratio(dv("digest.hits"), lookups);
  if (wname == "point_hot" && hit_ratio < 0.9) {
    problems.push_back("point_hot is no longer hit-dominated");
  }
  if (wname == "mixed_cold" && hit_ratio > 0.1) {
    problems.push_back("mixed_cold is no longer miss-dominated");
  }

  ReplayResult rep;
  Tracer tracer(Clock::now(), span_ids.load());
  std::vector<const WireSpan*> sample;
  if (trace) {
    sample = choose_sample(t.spans);
    std::unique_ptr<Fixture> twin = wl->setup(data_root + "/twin");
    rep = replay(*wl, *twin, sample, tracer);
    if (rep.errors) problems.push_back(std::to_string(rep.errors) + " replayed statements errored");
  }
  const bool correct = problems.empty() && t.failed == 0;

  // --- human-readable report ---
  std::printf("# e2e: qps=%.1f 1/s  p50_us=%.2f  server_cpu_us_per_stmt=%.3f  "
              "rss_mb=%.1f  setup_s=%.4f (%zu set-ups)\n",
              median(t.qps), median(t.p50), median(t.cpu), rss_mb,
              median(setup_s), setup_s.size());
  std::printf("# unbounded: p95_us=%.2f  p99_us=%.2f  write_p50_us=%.2f write_p99_us=%.2f (n=%" PRIu64
              ")  exec_p50_us=%.2f (n=%" PRIu64 ")  failed_frac=%.6f (%" PRIu64 "/%" PRIu64 ")\n",
              median(t.p95), median(t.p99), t.writes.percentile_us(0.5), t.writes.percentile_us(0.99),
              t.writes.count(),
              t.execs.percentile_us(0.5), t.execs.count(),
              ratio(static_cast<double>(t.failed), stmts), t.failed, t.attempted);
  std::printf("# properties (base %" PRIu64 " statements): digest_hit=%.4f of %.0f lookups  "
              "exec=%.4f  write=%.4f  in_txn=%.4f  injected=%.4f (%" PRIu64
              ")  conflict_retries=%" PRIu64 "\n",
              t.attempted, hit_ratio, lookups, ratio(static_cast<double>(t.n_exec), stmts),
              ratio(static_cast<double>(t.n_write), stmts),
              ratio(static_cast<double>(t.n_txn), stmts),
              ratio(static_cast<double>(t.injected), stmts), t.injected, t.conflicts);
  std::printf("# reconcile: septic.dropped=%" PRIu64 " injected_sent=%" PRIu64
              "  prepared_reverdicts=%" PRIu64 "  acked_commits=%" PRIu64
              " wal_sync_calls=%" PRIu64 "\n",
              d.at("septic.dropped"), t.injected, d.at("engine.prepared_reverdicts"), t.acked,
              d.at("wal.sync_calls"));
  std::printf("# untraced windows (qps, p50_us, p95_us):");
  for (size_t i = 0; i < t.qps.size(); ++i) {
    std::printf(" %.0f,%.1f,%.1f", t.qps[i], t.p50[i], t.p95[i]);
  }
  std::printf("\n");
  for (const std::string& p : problems) std::printf("# PROBLEM: %s\n", p.c_str());

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"qps", "1/s", median(t.qps)},
        {"p50_us", "us", median(t.p50)},
        {"server_cpu_us_per_stmt", "us", median(t.cpu)},
        {"rss_mb", "MB", rss_mb},
        {"setup_s", "s", median(setup_s)},
    };
  } else {
    auto p50 = [&](const char* name) {
      auto it = tracer.durations.find(name);
      return it == tracer.durations.end() ? 0.0 : percentile(it->second, 0.5);
    };
    metrics = {
        {"net.overhead_us", "us",
         rep.wire_us.empty()
             ? 0.0
             : percentile(rep.wire_us, 0.5) - percentile(rep.engine_us, 0.5)},
        {"net.ctx_switches_per_stmt", "count", ratio(static_cast<double>(t.ctx_switches), stmts)},
        {"net.client_cpu_us_per_stmt", "us", ratio(t.client_cpu_us, stmts)},
        {"net.threads", "count", static_cast<double>(t.threads)},
        {"common.charset_us", "us", p50("common.charset")},
        {"sqlcore.lex_us", "us", p50("sqlcore.lex")},
        {"sqlcore.parse_us", "us", p50("sqlcore.parse")},
        {"sqlcore.item_stack_us", "us", p50("sqlcore.item_stack")},
        {"engine.execute_us", "us", p50("engine.execute")},
        {"engine.execute_prepared_us", "us", p50("engine.execute_prepared")},
        {"engine.validate_us", "us", p50("engine.validate")},
        {"engine.plan_us", "us", p50("engine.plan")},
        {"engine.exec_us", "us", p50("engine.exec")},
        {"engine.digest_lookup_us", "us", p50("engine.digest_lookup")},
        {"engine.digest_hit_ratio", "ratio", hit_ratio},
        {"engine.digest_lookups", "count", lookups},
        {"engine.digest_evictions", "count", dv("digest.evictions")},
        {"engine.digest_invalidations", "count", dv("digest.invalidations")},
        {"engine.prepared_reverdicts", "count", dv("engine.prepared_reverdicts")},
        {"engine.txn_conflict_ratio", "ratio", ratio(dv("txn.conflicts"), dv("txn.begun"))},
        {"engine.txn_begun", "count", dv("txn.begun")},
        {"engine.parse_verdict_share", "ratio", ratio(rep.parse_verdict_us, rep.engine_total_us)},
        {"septic.on_query_us", "us", p50("septic.on_query")},
        {"septic.replay_us", "us", p50("septic.replay")},
        {"septic.prepared_exec_us", "us", p50("septic.prepared_exec")},
        {"septic.queries_seen", "count", dv("septic.queries_seen")},
        {"septic.dropped", "count", dv("septic.dropped")},
        {"septic.sqli_detected", "count", dv("septic.sqli_detected")},
        {"septic.stored_detected", "count", dv("septic.stored_detected")},
        {"storage.commits_per_fsync", "ratio", ratio(dv("wal.sync_calls"), dv("wal.fsyncs"))},
        {"storage.fsyncs", "count", dv("wal.fsyncs")},
        {"storage.wal_bytes_per_commit", "B",
         ratio(dv("wal.bytes_appended"), static_cast<double>(t.acked))},
        {"storage.checkpoints", "count", dv("checkpoint.count")},
        {"storage.checkpoint_ms", "ms", checkpoint_ms},
        {"trace.overhead_p50_us", "us", median(t.traced_p50) - median(t.p50)},
        {"trace.overhead_qps_frac", "ratio",
         ratio(median(t.qps) - median(t.traced_qps), median(t.qps))},
    };
    for (const Metric& m : metrics) {
      std::printf("# layer %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    // Spans: live wire calls of the traced windows, then the replay.
    const std::string path = work_dir + "/spans-" + wname + ".tsv";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "span_id\tparent_id\tname\tstart_ns\tend_ns\n");
      for (const WireSpan& s : t.spans) {
        std::fprintf(f, "%" PRIu64 "\t0\twire\t%" PRId64 "\t%" PRId64 "\n", s.id, s.start_ns,
                     s.end_ns);
      }
      for (const SpanOut& s : tracer.spans) {
        std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRId64 "\t%" PRId64 "\n", s.id,
                     s.parent, s.name.c_str(), s.start_ns, s.end_ns);
      }
      std::fclose(f);
      std::printf("# spans: %s (%zu statements replayed on the twin)\n", path.c_str(),
                  sample.size());
    }
  }

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted) +
                     ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return t.injected_executed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 3;
  }
}
