#include "gen.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Value = std::int64_t;

/// xoshiro256** seeded through splitmix64. Kept here rather than borrowed
/// from the library so a change to the program never changes the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& s : s_) {
      std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

class Zipf {
 public:
  Zipf(int n, double theta) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<std::size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int operator()(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

struct Op {
  int obj = 0;
  bool write = false;
  Value value = 0;
};

struct Txn {
  bool active = false;
  long id = 0;
  std::vector<Op> ops;
  std::size_t next = 0;      // index of the operation in progress
  bool awaiting = false;     // its invocation was emitted
  bool tryc_invoked = false;
  std::vector<std::pair<int, Value>> reads;
};

class Simulator {
 public:
  Simulator(const TraceSpec& spec, TextSink& sink)
      : spec_(spec),
        sink_(sink),
        rng_(spec.seed),
        zipf_(spec.objects, spec.zipf_theta),
        committed_(static_cast<std::size_t>(spec.objects), 0),
        threads_(static_cast<std::size_t>(spec.threads)) {}

  TraceRecord run() {
    const std::size_t inject_after =
        spec_.inject == Inject::kNone
            ? static_cast<std::size_t>(-1)
            : static_cast<std::size_t>(static_cast<double>(spec_.events) *
                                       std::min(spec_.inject_at, 1.0));
    // An aborted-read injection waits for an aborted write to exist, up to
    // a bound past which it injects an uncommitted read instead.
    const std::size_t wait_limit = 4 * spec_.events + 64;
    bool injected = false;
    for (;;) {
      const bool due = !injected && rec_.events >= inject_after;
      if (due && (spec_.inject != Inject::kAbortedRead || has_aborted_write_ ||
                  rec_.events >= wait_limit)) {
        inject();
        injected = true;
        if (spec_.inject_at >= 1.0) return rec_;
        continue;
      }
      if (!due && rec_.events >= spec_.events) return rec_;
      const int next = spec_.conflict_every > 0
                           ? static_cast<int>(rec_.events % threads_.size())
                           : rng_.below(spec_.threads);
      step(threads_[static_cast<std::size_t>(next)], next);
    }
  }

 private:
  // -- token output -------------------------------------------------------
  void emit(char kind, long txn, const char* suffix, int obj = -1,
            const Value* arg = nullptr, const char* tail = nullptr,
            const Value* result = nullptr) {
    std::string& tok = token_;
    tok.clear();
    tok += kind;
    append_number(tok, txn);
    tok += suffix;
    if (obj >= 0) {
      tok += "(X";
      append_number(tok, obj);
      if (arg != nullptr) {
        tok += ',';
        append_number(tok, *arg);
      }
      tok += ')';
    }
    if (tail != nullptr) tok += tail;
    if (result != nullptr) append_number(tok, *result);
    tok += ' ';
    sink_.put(tok.data(), tok.size());
    ++rec_.events;
  }

  static void append_number(std::string& out, long long v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
  }

  void note_write(int obj, Value v) {
    if (!spec_.counters) return;  // fresh values are unique by construction
    if (v == 0 || !writes_.emplace(obj, v).second) rec_.unique_writes = false;
  }

  // -- the simulated STM ----------------------------------------------------
  bool valid(const Txn& t) const {
    for (const auto& [obj, v] : t.reads)
      if (committed_[static_cast<std::size_t>(obj)] != v) return false;
    return true;
  }

  void begin(Txn& t, int thread) {
    t.active = true;
    t.id = next_txn_++;
    t.ops.clear();
    t.reads.clear();
    t.next = 0;
    t.awaiting = false;
    t.tryc_invoked = false;
    if (spec_.counters) {
      const int obj = counter_for(thread);
      t.ops.push_back({obj, false, 0});
      t.ops.push_back({obj, true, 0});  // value = read + 1, set at the read
      return;
    }
    const int n = spec_.min_ops + rng_.below(spec_.max_ops - spec_.min_ops + 1);
    while (static_cast<int>(t.ops.size()) < n) {
      const int obj = zipf_(rng_);
      bool dup = false;
      for (const Op& op : t.ops) dup |= op.obj == obj;
      if (!dup) t.ops.push_back({obj, rng_.uniform() < 0.5, 0});
    }
  }

  void abort_done(Txn& t) {
    for (const Op& op : t.ops)
      if (op.write && op.value != 0 && !spec_.counters) {
        aborted_write_ = {op.obj, op.value};
        has_aborted_write_ = true;
      }
    t.active = false;
  }

  /// The counter a new transaction of `thread` increments. In a lockstep
  /// round that is not a shared one, the threads take distinct counters
  /// while there are enough of them, so no round conflicts by chance.
  int counter_for(int thread) {
    if (spec_.conflict_every <= 0) return zipf_(rng_);
    if (thread == 0) {
      shared_round_ = rounds_++ % spec_.conflict_every == 0;
      round_counter_ = zipf_(rng_);
      round_used_.assign(1, round_counter_);
      return round_counter_;
    }
    if (shared_round_) return round_counter_;
    int obj = zipf_(rng_);
    const auto used = [this](int o) {
      return std::find(round_used_.begin(), round_used_.end(), o) !=
             round_used_.end();
    };
    if (round_used_.size() < committed_.size())
      while (used(obj)) obj = zipf_(rng_);
    round_used_.push_back(obj);
    return obj;
  }

  void step(Txn& t, int thread) {
    if (!t.active) begin(t, thread);
    if (t.next < t.ops.size()) {
      Op& op = t.ops[t.next];
      if (!t.awaiting) {
        t.awaiting = true;
        if (op.write) {
          if (!spec_.counters) op.value = next_value_++;
          note_write(op.obj, op.value);
          emit('W', t.id, "?", op.obj, &op.value);
        } else {
          emit('R', t.id, "?", op.obj);
        }
        return;
      }
      t.awaiting = false;
      ++t.next;
      if (op.write) {
        emit('W', t.id, "!", op.obj);
        return;
      }
      if (!valid(t)) {
        emit('R', t.id, "!", op.obj, nullptr, "=A");
        abort_done(t);
        return;
      }
      const Value v = committed_[static_cast<std::size_t>(op.obj)];
      t.reads.emplace_back(op.obj, v);
      if (spec_.counters) t.ops[1].value = v + 1;
      emit('R', t.id, "!", op.obj, nullptr, "=", &v);
      return;
    }
    if (!t.tryc_invoked) {
      t.tryc_invoked = true;
      emit('C', t.id, "?");
      return;
    }
    if (!valid(t)) {
      emit('C', t.id, "!=A");
      abort_done(t);
      return;
    }
    for (const Op& op : t.ops)
      if (op.write) committed_[static_cast<std::size_t>(op.obj)] = op.value;
    ++rec_.commits;
    emit('C', t.id, "!");
    t.active = false;
  }

  /// Appends the violating read (and, mid-trace, closes the transactions
  /// involved so the trace stays well-formed and live work can drain).
  void inject() {
    int obj = 0;
    Value v = 0;
    long writer = 0;
    if (spec_.inject == Inject::kAbortedRead && has_aborted_write_) {
      obj = aborted_write_.first;
      v = aborted_write_.second;
    } else {
      obj = zipf_(rng_);
      v = spec_.counters ? (Value{1} << 40) + next_value_++ : next_value_++;
      writer = next_txn_++;
      note_write(obj, v);
      emit('W', writer, "?", obj, &v);
      emit('W', writer, "!", obj);
    }
    const long reader = next_txn_++;
    emit('R', reader, "?", obj);
    rec_.first_violation = rec_.events;
    emit('R', reader, "!", obj, nullptr, "=", &v);
    if (spec_.inject_at >= 1.0) return;
    emit('C', reader, "?");
    emit('C', reader, "!=A");
    if (writer != 0) {
      emit('A', writer, "?");
      emit('A', writer, "!");
    }
  }

  const TraceSpec& spec_;
  TextSink& sink_;
  Rng rng_;
  Zipf zipf_;
  std::vector<Value> committed_;
  std::vector<Txn> threads_;
  long next_txn_ = 1;
  Value next_value_ = 1;
  std::pair<int, Value> aborted_write_{0, 0};
  bool has_aborted_write_ = false;
  std::set<std::pair<int, Value>> writes_;  // counter mode only
  std::size_t rounds_ = 0;                  // lockstep counter rounds
  bool shared_round_ = false;
  int round_counter_ = 0;
  std::vector<int> round_used_;  // counters taken in this lockstep round
  TraceRecord rec_;
  std::string token_;
};

}  // namespace

void TextSink::put(const char* data, std::size_t n) {
  buf_.append(data, n);
  if (file_ != nullptr && buf_.size() >= (1u << 20)) flush();
}

bool TextSink::flush() {
  if (file_ == nullptr) return true;
  const bool ok = std::fwrite(buf_.data(), 1, buf_.size(), file_) == buf_.size();
  buf_.clear();
  return ok;
}

TraceRecord generate(const TraceSpec& spec, TextSink& sink) {
  return Simulator(spec, sink).run();
}

std::string generate_text(const TraceSpec& spec, TraceRecord& record) {
  TextSink sink;
  record = generate(spec, sink);
  return sink.text();
}

}  // namespace perfbench
