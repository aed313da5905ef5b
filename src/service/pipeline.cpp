#include "service/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "history/parser.hpp"

namespace duo::service {

using checker::Verdict;

IngestPipeline::IngestPipeline(const PipelineOptions& opts)
    : monitor_(opts.monitor) {}

bool IngestPipeline::fail(std::string why) {
  error_ = true;
  diagnostic_ = std::move(why);
  stopped_ = true;
  return false;
}

bool IngestPipeline::submit(std::string chunk) {
  if (stopped_) return false;
  ++chunks_applied_;
  const auto parsed = history::parse_events(chunk);
  if (!parsed) return fail("parse error: " + parsed.error());
  const history::ParsedEvents& pe = parsed.value();

  // `objects=N` declarations are honored across chunks exactly like the
  // offline parser honors them across tokens: the latest declaration wins
  // and an object id at or beyond it is an input error.
  if (pe.declared_objects >= 0) declared_objects_ = pe.declared_objects;
  truncated_ = truncated_ || pe.truncated;
  max_obj_ = std::max(max_obj_, pe.max_obj);
  if (declared_objects_ >= 0 && max_obj_ >= declared_objects_)
    return fail("objects= declares fewer objects than used");

  // One feed_batch per chunk: prescan once, derive per-object work across
  // the monitor's shards, apply serially. Verdicts and first-violation
  // indices are identical to per-event feeding.
  const auto out = monitor_.feed_batch(pe.events.data(), pe.events.size());
  if (!out.error.empty()) return fail("malformed event stream: " + out.error);
  if (monitor_.verdict() == Verdict::kNo) {
    // The latching event is the last one the batch consumed.
    violating_event_ = pe.events[out.consumed - 1];
    stopped_ = true;
    return false;
  }
  return true;
}

PipelineResult IngestPipeline::finish() {
  stopped_ = true;
  PipelineResult r;
  r.verdict = monitor_.verdict();
  r.first_violation = monitor_.first_violation();
  r.violating_event = violating_event_;
  r.explanation = error_ ? diagnostic_ : monitor_.explanation();
  r.error = error_;
  r.truncated = truncated_;
  r.events = monitor_.events_fed();
  r.monitor = monitor_.stats();
  return r;
}

PipelineSnapshot IngestPipeline::snapshot() const {
  PipelineSnapshot s;
  s.events = monitor_.events_fed();
  s.chunks = chunks_applied_;
  s.verdict = monitor_.verdict();
  s.retained_events = monitor_.retained_events();
  s.live_transactions = monitor_.live_transactions();
  s.graph_nodes = monitor_.graph_nodes();
  s.graph_edges = monitor_.graph_edges();
  s.pending_edges = monitor_.pending_edges();
  s.nonuw_debt = monitor_.nonuw_debt();
  s.retired_txns = monitor_.stats().retired_txns;
  s.sealed_reads = monitor_.stats().sealed_reads;
  s.gc_passes = monitor_.stats().gc_passes;
  s.full_checks = monitor_.stats().full_checks;
  return s;
}

}  // namespace duo::service
