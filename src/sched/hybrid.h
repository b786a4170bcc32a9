// Builder for the hybrid architecture of Section 4: k FIFO queues served
// by WFQ, buffer management inside each queue.
//
// From a flow->queue grouping the builder derives, per Section 4.2:
//   - queue service rates R_i = rho_hat_i + alpha_i (R - rho) with the
//     Proposition 3 optimal alphas (eq. 14/16);
//   - minimum per-queue buffers B_i^min (eq. 18), and the split of the
//     actual buffer B in proportion to them:  B_i = B * B_i^min / sum;
//   - per-flow thresholds inside queue i:  sigma_j + rho_j * B_i / R_i
//     (Proposition 2 applied to the queue, whose "link" is its WFQ rate).
//
// The builder then assembles the concrete machinery: a composite buffer
// manager (fixed-partition thresholds or buffer sharing per queue) and a
// class-based WfqScheduler whose classes are the queues.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/composite.h"
#include "core/flow_spec.h"
#include "core/hybrid_analysis.h"
#include "sched/wfq.h"
#include "util/units.h"

namespace bufq {

class HybridBuilder {
 public:
  /// `specs[f]` is the envelope of flow f; `groups[q]` lists the flows of
  /// queue q.  Every flow must appear in exactly one group, and the total
  /// reservation must leave spare capacity (sum rho < R).
  HybridBuilder(Rate link_rate, ByteSize total_buffer, std::vector<FlowSpec> specs,
                std::vector<std::vector<FlowId>> groups);

  [[nodiscard]] const std::vector<double>& alphas() const { return alphas_; }
  [[nodiscard]] const std::vector<Rate>& queue_rates() const { return queue_rates_; }
  [[nodiscard]] const std::vector<ByteSize>& queue_buffers() const { return queue_buffers_; }
  [[nodiscard]] const std::vector<std::size_t>& flow_to_queue() const { return flow_to_queue_; }

  /// Threshold of flow f inside its queue, bytes.
  [[nodiscard]] std::int64_t flow_threshold(FlowId flow) const;

  /// Composite manager with fixed-partition thresholds per queue.
  [[nodiscard]] std::unique_ptr<CompositeBufferManager> make_threshold_manager() const;

  /// Composite manager with buffer sharing per queue.  The global
  /// headroom H is split across queues in proportion to their buffers.
  /// Throws std::invalid_argument, naming H, when H < 0.
  [[nodiscard]] std::unique_ptr<CompositeBufferManager> make_sharing_manager(
      ByteSize headroom) const;

  /// Class-based WFQ over the queues, weighted by the queue rates and
  /// clocked by the link rate.
  [[nodiscard]] std::unique_ptr<WfqScheduler> make_scheduler(BufferManager& manager) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> queue_thresholds(std::size_t queue) const;

  Rate link_rate_;
  ByteSize total_buffer_;
  std::vector<FlowSpec> specs_;
  std::vector<std::vector<FlowId>> groups_;
  std::vector<QueueAggregate> aggregates_;
  std::vector<double> alphas_;
  std::vector<Rate> queue_rates_;
  std::vector<ByteSize> queue_buffers_;
  std::vector<std::size_t> flow_to_queue_;
};

}  // namespace bufq
