#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "storage/wal/durable.h"

namespace wirebench {

namespace engine = septic::engine;
namespace core = septic::core;

Fixture::~Fixture() {
  db.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

namespace {

std::string hex8(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(8, '0');
  for (int i = 7; i >= 0; --i, v >>= 4) s[static_cast<size_t>(i)] = kDigits[v & 15];
  return s;
}

/// Loads rows 0..n-1 in multi-row INSERTs; `tuple(i, sql)` appends row i's
/// VALUES fields, comma-separated, to `sql`.
template <typename F>
void load_rows(engine::Database& db, const std::string& insert_prefix, int n, F&& tuple) {
  constexpr int kBatch = 500;
  for (int i = 0; i < n; i += kBatch) {
    std::string sql = insert_prefix;
    for (int j = i; j < std::min(n, i + kBatch); ++j) {
      sql += j > i ? ", (" : "(";
      tuple(j, sql);
      sql += ')';
    }
    db.execute_admin(sql);
  }
}

/// Prevention-mode SEPTIC as the paper deploys it: its logger records
/// attacks and new models, not every benign query.
std::shared_ptr<core::Septic> install_septic(engine::Database& db) {
  auto septic = std::make_shared<core::Septic>();
  septic->set_log_processed_queries(false);
  septic->set_mode(core::Mode::kTraining);
  db.set_interceptor(septic);
  return septic;
}

/// Appends a cleared statement to `u`, reusing a slot's string buffers.
Stmt& slot(Unit& u) {
  if (u.size == u.stmts.size()) u.stmts.emplace_back();
  Stmt& s = u.stmts[u.size++];
  s.op = Op::kQuery;
  s.sql.clear();
  s.rows.clear();
  s.param = 0;
  s.affected = 0;
  s.write = s.injected = s.in_txn = false;
  return s;
}

// ---------------------------------------------------------------------------
// point_hot: PK point reads over a 1,024-row table; half text QUERYs (two
// projections, so 2,048 distinct strings, all warm in the digest cache),
// half EXECs of a per-connection prepared handle.
// ---------------------------------------------------------------------------

class PointHot final : public Workload {
 public:
  static constexpr int kRows = 1024;

  explicit PointHot(uint64_t seed) : Workload(seed) {
    Rng rng(seed);
    for (int i = 0; i < kRows; ++i) {
      grp_.push_back(static_cast<int>(rng.below(16)));
      name_.push_back("user-" + hex8(rng.next()));
    }
  }

  const char* name() const override { return "point_hot"; }
  int connections() const override { return 2; }
  std::string exec_template() const override {
    return "SELECT id, grp, name FROM hot WHERE id = ?";
  }

  std::unique_ptr<Fixture> setup(const std::string& dir) const override {
    (void)dir;
    auto fx = std::make_unique<Fixture>();
    fx->db = std::make_unique<engine::Database>();
    engine::Database& db = *fx->db;
    db.execute_admin("CREATE TABLE hot (id INT PRIMARY KEY, grp INT, name TEXT)");
    load_rows(db, "INSERT INTO hot (id, grp, name) VALUES ", kRows,
              [this](int i, std::string& sql) {
                sql += std::to_string(i + 1);
                sql += ", ";
                sql += std::to_string(grp_[static_cast<size_t>(i)]);
                sql += ", '";
                sql += name_[static_cast<size_t>(i)];
                sql += '\'';
              });

    fx->septic = install_septic(db);
    engine::Session trainer("trainer");
    db.execute(trainer, full_sql(1));
    db.execute(trainer, short_sql(1));
    fx->septic->set_mode(core::Mode::kPrevention);

    // Every text statement the clients can send, twice: the first pass
    // caches the verdict, the second proves it replays.
    engine::Session warm("warm");
    for (int pass = 0; pass < 2; ++pass) {
      for (int key = 1; key <= kRows; ++key) {
        db.execute(warm, full_sql(key));
        db.execute(warm, short_sql(key));
      }
    }
    return fx;
  }

  void next_unit(Rng& rng, Unit& u) const override {
    u.size = 0;
    uint64_t r = rng.next();
    const int key = static_cast<int>(r % kRows) + 1;
    const std::string& name = name_[static_cast<size_t>(key - 1)];
    const std::string grp = std::to_string(grp_[static_cast<size_t>(key - 1)]);
    Stmt& s = slot(u);
    s.expect = Expect::kRows;
    if ((r >> 20) & 1) {
      s.op = Op::kExec;
      s.param = key;
      s.rows = std::to_string(key) + "\t" + grp + "\t" + name + "\n";
    } else if ((r >> 21) & 1) {
      s.sql = full_sql(key);
      s.rows = std::to_string(key) + "\t" + grp + "\t" + name + "\n";
    } else {
      s.sql = short_sql(key);
      s.rows = name + "\t" + grp + "\n";
    }
  }

 private:
  static std::string full_sql(int key) {
    return "SELECT id, grp, name FROM hot WHERE id = " + std::to_string(key);
  }
  static std::string short_sql(int key) {
    return "SELECT name, grp FROM hot WHERE id = " + std::to_string(key);
  }

  std::vector<int> grp_;
  std::vector<std::string> name_;
};

// ---------------------------------------------------------------------------
// mixed_cold: web-app-shaped traffic on a 100k-row table with a secondary
// index. Literals vary, so nearly every statement misses the digest cache.
// ---------------------------------------------------------------------------

class MixedCold final : public Workload {
 public:
  static constexpr int kRows = 100000;
  static constexpr int64_t kKeySpace = 10000000;
  static constexpr int64_t kRangeWidth = 10000;  // ~100 of 100k keys

  explicit MixedCold(uint64_t seed) : Workload(seed) {
    Rng rng(seed ^ 0x6d69786564ULL);
    std::unordered_set<int64_t> seen;
    seen.reserve(kRows * 2);
    while (static_cast<int>(k_.size()) < kRows) {
      int64_t k = static_cast<int64_t>(rng.below(kKeySpace));
      if (seen.insert(k).second) k_.push_back(k);
    }
    for (int i = 0; i < kRows; ++i) {
      name_.push_back("item-" + hex8(rng.next()));
      by_k_.emplace_back(k_[static_cast<size_t>(i)], i + 1);
    }
    std::sort(by_k_.begin(), by_k_.end());
  }

  const char* name() const override { return "mixed_cold"; }
  int connections() const override { return 2; }

  std::unique_ptr<Fixture> setup(const std::string& dir) const override {
    (void)dir;
    auto fx = std::make_unique<Fixture>();
    fx->db = std::make_unique<engine::Database>();
    engine::Database& db = *fx->db;
    db.execute_admin(
        "CREATE TABLE items (id INT PRIMARY KEY, k INT, name TEXT, note TEXT)");
    load_rows(db, "INSERT INTO items (id, k, name, note) VALUES ", kRows,
              [this](int i, std::string& sql) {
                sql += std::to_string(i + 1);
                sql += ", ";
                sql += std::to_string(k_[static_cast<size_t>(i)]);
                sql += ", '";
                sql += name_[static_cast<size_t>(i)];
                sql += "', 'new'";
              });
    db.execute_admin("CREATE INDEX idx_k ON items (k)");

    fx->septic = install_septic(db);
    engine::Session trainer("trainer");
    Rng rng(seed_);
    Unit u;
    for (int kind = 0; kind < 4; ++kind) {
      make_benign(kind, rng, u);
      db.execute(trainer, u.stmts[0].sql);
    }
    fx->septic->set_mode(core::Mode::kPrevention);
    return fx;
  }

  void next_unit(Rng& rng, Unit& u) const override {
    uint64_t r = rng.below(1000);
    if (r < 500) {
      make_benign(0, rng, u);
    } else if (r < 600) {
      make_benign(1, rng, u);
    } else if (r < 700) {
      make_benign(2, rng, u);
    } else if (r < 990) {
      make_benign(3, rng, u);
    } else {
      make_injected(rng, u);
    }
  }

 private:
  int64_t random_id(Rng& rng) const {
    return static_cast<int64_t>(rng.below(kRows)) + 1;
  }

  /// kind 0: PK point read, 1: index range count, 2: ORDER BY k LIMIT 10,
  /// 3: UPDATE of the ~200-byte note.
  void make_benign(int kind, Rng& rng, Unit& u) const {
    u.size = 0;
    Stmt& s = slot(u);
    switch (kind) {
      case 0: {
        int64_t id = random_id(rng);
        s.sql = "SELECT id, k, name FROM items WHERE id = " + std::to_string(id);
        s.expect = Expect::kRows;
        s.rows = std::to_string(id) + "\t" + std::to_string(k_[static_cast<size_t>(id - 1)]) +
                 "\t" + name_[static_cast<size_t>(id - 1)] + "\n";
        break;
      }
      case 1: {
        int64_t lo = static_cast<int64_t>(rng.below(kKeySpace - kRangeWidth));
        int64_t hi = lo + kRangeWidth;
        s.sql = "SELECT COUNT(*) FROM items WHERE k BETWEEN " + std::to_string(lo) +
                " AND " + std::to_string(hi);
        auto first = std::lower_bound(by_k_.begin(), by_k_.end(),
                                      std::make_pair(lo, 0));
        auto last = std::upper_bound(by_k_.begin(), by_k_.end(),
                                     std::make_pair(hi, kRows + 1));
        s.expect = Expect::kRows;
        s.rows = std::to_string(last - first) + "\n";
        break;
      }
      case 2: {
        int64_t lo = static_cast<int64_t>(rng.below(kKeySpace));
        s.sql = "SELECT id, k FROM items WHERE k >= " + std::to_string(lo) +
                " ORDER BY k LIMIT 10";
        s.expect = Expect::kRows;
        auto it = std::lower_bound(by_k_.begin(), by_k_.end(),
                                   std::make_pair(lo, 0));
        for (int n = 0; n < 10 && it != by_k_.end(); ++n, ++it) {
          s.rows += std::to_string(it->second) + "\t" + std::to_string(it->first) + "\n";
        }
        break;
      }
      default: {
        int64_t id = random_id(rng);
        s.sql = "UPDATE items SET note = '" + note_text(rng) +
                "' WHERE id = " + std::to_string(id);
        s.expect = Expect::kAffected;
        s.affected = 1;
        s.write = true;
        break;
      }
    }
  }

  /// About 200 bytes of benign user text, escaped the way an application's
  /// mysql_real_escape_string would: apostrophes, angle brackets, accents.
  static std::string note_text(Rng& rng) {
    static const char* kWords[] = {
        "O\\'Brien", "don\\'t",  "it\\'s",     "a < b",   "5 > 4",  "<3",
        "->",        "great",    "café",       "naïve",   "review", "would",
        "buy",       "again",    "\\'quoted\\'", "price",  "was",    "fair",
        "x > y",     "shipping", "slow",       "l\\'été", "thanks", "ok",
    };
    constexpr size_t kCount = sizeof(kWords) / sizeof(kWords[0]);
    std::string text;
    while (text.size() < 200) {
      if (!text.empty()) text += ' ';
      text += kWords[rng.below(kCount)];
    }
    return text;
  }

  /// One of five attack variants of the benign templates. Each keeps the
  /// template's SEPTIC ID (kind, table, target columns) so it is compared
  /// against the learned model.
  void make_injected(Rng& rng, Unit& u) const {
    u.size = 0;
    Stmt& s = slot(u);
    const std::string id = std::to_string(random_id(rng));
    const std::string id2 = std::to_string(random_id(rng));
    switch (rng.below(5)) {
      case 0:  // numeric tautology
        s.sql = "SELECT id, k, name FROM items WHERE id = " + id + " OR 1=1";
        break;
      case 1:  // UNION exfiltration
        s.sql = "SELECT id, k, name FROM items WHERE id = " + id +
                " UNION SELECT id, k, note FROM items";
        break;
      case 2:  // comment truncation of ORDER BY ... LIMIT
        s.sql = "SELECT id, k FROM items WHERE k >= " + id +
                " OR 1=1 -- ORDER BY k LIMIT 10";
        break;
      case 3:  // U+02BC confusable quote survives escaping, becomes ' on the server
        s.sql = "UPDATE items SET note = 'x\xCA\xBC WHERE id = " + id +
                " OR 1=1 -- ' WHERE id = " + id2;
        break;
      default:  // stored XSS in an UPDATE value
        s.sql = "UPDATE items SET note = '<script>alert(" + id +
                ")</script>' WHERE id = " + id2;
        break;
    }
    s.expect = Expect::kBlocked;
    s.injected = true;
  }

  std::vector<int64_t> k_;  // k of row id i+1
  std::vector<std::string> name_;
  std::vector<std::pair<int64_t, int>> by_k_;  // (k, id) sorted by k
};

// ---------------------------------------------------------------------------
// commit_durable: full-durability payment transactions
// BEGIN; UPDATE accounts; UPDATE merchants; INSERT ledger; COMMIT.
// ---------------------------------------------------------------------------

class CommitDurable final : public Workload {
 public:
  static constexpr int kAccounts = 100000;
  static constexpr int kMerchants = 10000;
  static constexpr int64_t kOpening = 1000;

  explicit CommitDurable(uint64_t seed) : Workload(seed) {}

  const char* name() const override { return "commit_durable"; }
  int connections() const override { return 4; }

  std::unique_ptr<Fixture> setup(const std::string& dir) const override {
    auto fx = std::make_unique<Fixture>();
    fx->dir = dir;
    septic::storage::wal::DurableStorage::Options opts;
    opts.dir = dir;
    // Bulk load without a per-commit fsync; the measured run is kFull.
    opts.mode = septic::storage::wal::DurabilityMode::kRelaxed;
    opts.checkpoint_wal_bytes = kCheckpointWalBytes;
    fx->db = std::make_unique<engine::Database>(std::move(opts));
    engine::Database& db = *fx->db;
    db.execute_admin("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)");
    db.execute_admin("CREATE TABLE merchants (id INT PRIMARY KEY, balance INT)");
    // An append-only ledger with no primary key: a transactional INSERT
    // checks a primary key for duplicates by scanning the whole table, so a
    // keyed ledger would cost more with every transfer the window commits.
    db.execute_admin("CREATE TABLE ledger (account INT, merchant INT, amount INT)");
    load_rows(db, "INSERT INTO accounts (id, balance) VALUES ", kAccounts,
              [](int i, std::string& sql) {
                sql += std::to_string(i + 1);
                sql += ", ";
                sql += std::to_string(kOpening);
              });
    load_rows(db, "INSERT INTO merchants (id, balance) VALUES ", kMerchants,
              [](int i, std::string& sql) {
                sql += std::to_string(i + 1);
                sql += ", 0";
              });
    // A PK probe whose snapshot predates the table's newest superseded
    // version cannot use the PK hash and falls back to a full scan, which
    // inside a transaction is the common case under concurrent commits.
    // An ordered index on the key covers every version, so the probe stays
    // a point read and the transfer's time goes to commit.
    db.execute_admin("CREATE INDEX idx_accounts_id ON accounts (id)");
    db.execute_admin("CREATE INDEX idx_merchants_id ON merchants (id)");

    fx->septic = install_septic(db);
    engine::Session trainer("trainer");
    db.execute(trainer, "UPDATE accounts SET balance = balance - 0 WHERE id = 1");
    db.execute(trainer, "UPDATE merchants SET balance = balance + 0 WHERE id = 1");
    db.execute(trainer, "INSERT INTO ledger (account, merchant, amount) VALUES (1, 1, 0)");
    fx->ledger_rows = 1;
    fx->septic->set_mode(core::Mode::kPrevention);

    db.sync_durable();
    db.checkpoint_now();
    db.set_durability_mode(septic::storage::wal::DurabilityMode::kFull);
    return fx;
  }

  /// One payment. Each table takes one write per transaction: a second
  /// write to a table would run against the transaction's write-set
  /// overlay, where the executor answers a PK probe with a full scan.
  void next_unit(Rng& rng, Unit& u) const override {
    u.size = 0;
    const std::string a = std::to_string(rng.below(kAccounts) + 1);
    const std::string m = std::to_string(rng.below(kMerchants) + 1);
    const std::string amt = std::to_string(rng.below(100) + 1);

    Stmt& begin = slot(u);
    begin.sql = "BEGIN";
    begin.expect = Expect::kOk;
    auto write = [&u](std::string sql, Expect e) {
      Stmt& s = slot(u);
      s.sql = std::move(sql);
      s.expect = e;
      s.affected = 1;
      s.write = true;
    };
    write("UPDATE accounts SET balance = balance - " + amt + " WHERE id = " + a,
          Expect::kAffected);
    write("UPDATE merchants SET balance = balance + " + amt + " WHERE id = " + m,
          Expect::kAffected);
    write("INSERT INTO ledger (account, merchant, amount) VALUES (" + a + ", " + m + ", " +
              amt + ")",
          Expect::kAffected);
    write("COMMIT", Expect::kCommit);
    for (size_t i = 0; i < u.size; ++i) u.stmts[i].in_txn = true;
  }

  std::string check_final(Fixture& fx, uint64_t acked_commits) const override {
    // One SELECT per table: these pass SEPTIC too, which would flag a
    // second, differently shaped SELECT on a table as an attack.
    auto row = [&fx](const char* sql) {
      engine::ResultSet rs = fx.db->execute_admin(sql);
      std::vector<std::string> out;
      if (rs.rows.size() == 1) {
        for (const auto& v : rs.rows[0]) out.push_back(v.to_display());
      }
      return out;
    };
    const std::vector<std::string> ledger = row("SELECT COUNT(*), SUM(amount) FROM ledger");
    if (ledger.size() != 2) return "cannot read the ledger";
    const std::string want_n =
        std::to_string(fx.ledger_rows + static_cast<int64_t>(acked_commits));
    if (ledger[0] != want_n) {
      return "ledger has " + ledger[0] + " rows, acked commits imply " + want_n;
    }
    const std::string& paid = ledger[1];
    if (row("SELECT SUM(balance) FROM merchants") != std::vector<std::string>{paid}) {
      return "merchants' SUM(balance) is not the ledger's SUM(amount) " + paid;
    }
    const std::string want_left =
        std::to_string(int64_t{kAccounts} * kOpening - std::stoll(paid));
    if (row("SELECT SUM(balance) FROM accounts") != std::vector<std::string>{want_left}) {
      return "accounts' SUM(balance) is not " + want_left;
    }
    return {};
  }

 private:
  /// A quarter of the engine's default 4 MiB, so that at about 150 WAL
  /// bytes per commit checkpoints fall inside every window of 2 s or more.
  static constexpr uint64_t kCheckpointWalBytes = 1u << 20;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "point_hot") return std::make_unique<PointHot>(seed);
  if (name == "mixed_cold") return std::make_unique<MixedCold>(seed);
  if (name == "commit_durable") return std::make_unique<CommitDurable>(seed);
  return nullptr;
}

}  // namespace wirebench
