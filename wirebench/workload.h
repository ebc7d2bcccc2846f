// The benchmark's three workloads: seeded data, per-connection statement
// streams with their expected replies, and the fixture each one measures
// (engine + SEPTIC in prevention mode, loaded, trained and warmed).
// README.md next to this file gives the reason for each workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "septic/septic.h"

namespace wirebench {

/// splitmix64: small, fast, and the same sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

enum class Op : uint8_t { kQuery, kExec };

/// What a correct server answers.
enum class Expect : uint8_t {
  kRows,      // ROWS whose body (after the header line) equals Stmt::rows
  kAffected,  // OK carrying "affected=<Stmt::affected>"
  kOk,        // any OK (BEGIN)
  kCommit,    // OK, or CONFLICT (the unit is retried, not failed)
  kBlocked,   // ERROR "BLOCKED: ..." (injected statements)
};

struct Stmt {
  Op op = Op::kQuery;
  std::string sql;     // QUERY text; unused for kExec
  int64_t param = 0;   // kExec: the one bound key
  Expect expect = Expect::kOk;
  std::string rows;    // kRows: expected reply body
  int64_t affected = 0;
  bool write = false;     // UPDATE / INSERT / COMMIT
  bool injected = false;  // an attack variant; must come back BLOCKED
  bool in_txn = false;    // BEGIN..COMMIT, both ends included
};

/// The statements a client sends as one retryable unit: one statement, or
/// one whole explicit transaction.
struct Unit {
  std::vector<Stmt> stmts;
  size_t size = 0;  // live prefix of stmts (slots are reused)
};

/// A workload's engine under test. Destroying it removes its data dir.
struct Fixture {
  Fixture() = default;
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::string dir;  // WAL + checkpoint directory; empty when volatile
  std::unique_ptr<septic::engine::Database> db;
  std::shared_ptr<septic::core::Septic> septic;
  /// Rows in the ledger table after setup (commit_durable).
  int64_t ledger_rows = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int connections() const = 0;
  /// Template each connection PREPAREs (empty: the workload sends no EXEC).
  virtual std::string exec_template() const { return {}; }

  /// Build a fresh engine, load the seeded tables, train SEPTIC on every
  /// benign template, switch to prevention, warm what the workload keeps
  /// warm. `dir` is a fresh directory for durable state.
  virtual std::unique_ptr<Fixture> setup(const std::string& dir) const = 0;

  /// Fill `out` with the next unit of the stream whose generator state is
  /// `rng`; client c's stream starts from stream_rng(c), so it is a pure
  /// function of the seed and the client number.
  virtual void next_unit(Rng& rng, Unit& out) const = 0;
  Rng stream_rng(int client) const {
    return Rng(seed_ * 0x100000001b3ULL + 0x51ed270b + static_cast<uint64_t>(client) * 0x9e37);
  }

  /// Check state the run must leave behind (balance invariants, ledger
  /// size); `acked_commits` counts every COMMIT that answered OK. Returns
  /// an empty string when correct, else what is wrong.
  virtual std::string check_final(Fixture& fx, uint64_t acked_commits) const {
    (void)fx;
    (void)acked_commits;
    return {};
  }

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  uint64_t seed_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed);

}  // namespace wirebench
