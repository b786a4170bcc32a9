#include "admission/admission_controller.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "core/admit_policy.h"
#include "sim/checkpoint.h"

namespace bufq::admission {

AdmissionController::AdmissionController(Config config) : config_{config} {
  assert(config_.link_rate.bps() > 0.0);
  assert(config_.buffer.count() >= 0);
  if (config_.scheme == Scheme::kFifoSharing) {
    assert(config_.headroom.count() >= 0);
    assert(config_.headroom < config_.buffer && "headroom must leave room for thresholds");
  }
  if (config_.scheme == Scheme::kHybrid) {
    assert(config_.hybrid_queues > 0 && "hybrid admission needs at least one queue");
    groups_.resize(config_.hybrid_queues);
  }
}

double AdmissionController::partition_bytes() const {
  const double buffer = static_cast<double>(config_.buffer.count());
  if (config_.scheme == Scheme::kFifoSharing) {
    return buffer - static_cast<double>(config_.headroom.count());
  }
  return buffer;
}

AdmissionVerdict AdmissionController::try_admit(const FlowSpec& flow, std::size_t group) {
  decisions_metric_.add();
  const auto reject = [this](AdmissionVerdict verdict) {
    rejects_metric_.add();
    return verdict;
  };
  const double link_bps = config_.link_rate.bps();
  const double new_rate = reserved_rate_bps_ + flow.rho.bps();
  const double new_sigma = reserved_sigma_ + static_cast<double>(flow.sigma.count());

  if (new_rate > link_bps) return reject(AdmissionVerdict::kBandwidthLimited);

  switch (config_.scheme) {
    case Scheme::kWfq:
      // Eq. 6: every flow gets a private sigma-sized allocation.
      if (new_sigma > static_cast<double>(config_.buffer.count())) {
        return reject(AdmissionVerdict::kBufferLimited);
      }
      break;

    case Scheme::kFifoThreshold:
    case Scheme::kFifoSharing: {
      // Eq. 10: sum(sigma) / (1 - u) <= B_eff.  As u -> 1 the requirement
      // diverges, so a fully reserved link admits only zero-burst flows.
      const double b = partition_bytes();
      if (new_rate == link_bps) {
        if (new_sigma > 0.0) return reject(AdmissionVerdict::kBufferLimited);
      } else if (new_sigma * link_bps / (link_bps - new_rate) > b) {
        return reject(AdmissionVerdict::kBufferLimited);
      }
      break;
    }

    case Scheme::kHybrid: {
      assert(group < groups_.size());
      const GroupAggregate& g = groups_[group];
      // Re-evaluate the Prop-3 split with this group's term of S updated
      // in place: only one sqrt per decision.
      const double sigma_b = g.sigma_bytes + static_cast<double>(flow.sigma.count());
      const double rho_Bs = g.rho_bytes_per_s + flow.rho.bytes_per_second();
      const double new_term = std::sqrt(sigma_b * rho_Bs);
      const double new_s = s_value_ - g.term + new_term;
      // Eq. 19 under the optimal alphas: B >= sum(sigma) + S^2 / (R - rho).
      const double excess_Bs = (link_bps - new_rate) / 8.0;
      if (excess_Bs <= 0.0) {
        if (new_sigma > 0.0) return reject(AdmissionVerdict::kBufferLimited);
      } else if (new_sigma + new_s * new_s / excess_Bs >
                 static_cast<double>(config_.buffer.count())) {
        return reject(AdmissionVerdict::kBufferLimited);
      }
      groups_[group] = GroupAggregate{.sigma_bytes = sigma_b,
                                      .rho_bytes_per_s = rho_Bs,
                                      .term = new_term};
      s_value_ = new_s;
      break;
    }
  }

  reserved_rate_bps_ = new_rate;
  reserved_sigma_ = new_sigma;
  ++admitted_;
  accepts_metric_.add();
  return AdmissionVerdict::kAccepted;
}

void AdmissionController::release(const FlowSpec& flow, std::size_t group) {
  assert(admitted_ > 0);
  reserved_rate_bps_ -= flow.rho.bps();
  reserved_sigma_ -= static_cast<double>(flow.sigma.count());
  assert(reserved_rate_bps_ >= -1e-6);
  assert(reserved_sigma_ >= -1e-6);
  if (reserved_rate_bps_ < 0.0) reserved_rate_bps_ = 0.0;
  if (reserved_sigma_ < 0.0) reserved_sigma_ = 0.0;
  --admitted_;

  if (config_.scheme == Scheme::kHybrid) {
    assert(group < groups_.size());
    GroupAggregate& g = groups_[group];
    g.sigma_bytes -= static_cast<double>(flow.sigma.count());
    g.rho_bytes_per_s -= flow.rho.bytes_per_second();
    if (g.sigma_bytes < 0.0) g.sigma_bytes = 0.0;
    if (g.rho_bytes_per_s < 0.0) g.rho_bytes_per_s = 0.0;
    const double new_term = std::sqrt(g.sigma_bytes * g.rho_bytes_per_s);
    s_value_ += new_term - g.term;
    g.term = new_term;
    if (admitted_ == 0) {
      // Pin the accumulators back to exactly zero between busy periods so
      // float dust cannot build up over millions of churn events.
      s_value_ = 0.0;
      for (auto& gg : groups_) gg = GroupAggregate{};
    }
  }
  if (admitted_ == 0) {
    reserved_rate_bps_ = 0.0;
    reserved_sigma_ = 0.0;
  }
}

std::int64_t AdmissionController::threshold_bytes(const FlowSpec& flow) const {
  if (config_.scheme == Scheme::kWfq) return flow.sigma.count();
  // Prop 2 against the partitioned (headroom-excluded) buffer.  Round
  // down so the sum of thresholds never exceeds the partition.
  return static_cast<std::int64_t>(prop2_threshold(flow, partition_bytes(), config_.link_rate));
}

double AdmissionController::required_buffer_bytes() const {
  const double link_bps = config_.link_rate.bps();
  switch (config_.scheme) {
    case Scheme::kWfq:
      return reserved_sigma_;
    case Scheme::kFifoThreshold:
    case Scheme::kFifoSharing: {
      if (reserved_sigma_ == 0.0) return 0.0;
      if (reserved_rate_bps_ >= link_bps) return std::numeric_limits<double>::infinity();
      double b = reserved_sigma_ * link_bps / (link_bps - reserved_rate_bps_);
      if (config_.scheme == Scheme::kFifoSharing) {
        b += static_cast<double>(config_.headroom.count());
      }
      return b;
    }
    case Scheme::kHybrid: {
      if (reserved_rate_bps_ >= link_bps) {
        return reserved_sigma_ == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
      }
      const double excess_Bs = (link_bps - reserved_rate_bps_) / 8.0;
      return reserved_sigma_ + s_value_ * s_value_ / excess_Bs;
    }
  }
  return 0.0;
}

std::vector<double> AdmissionController::hybrid_alphas() const {
  assert(config_.scheme == Scheme::kHybrid);
  std::vector<double> alphas(groups_.size(), 0.0);
  if (s_value_ <= 0.0) return alphas;
  for (std::size_t q = 0; q < groups_.size(); ++q) {
    alphas[q] = groups_[q].term / s_value_;
  }
  return alphas;
}

void AdmissionController::save_state(CheckpointWriter& w) const {
  w.begin_section("admission");
  w.write_f64(reserved_rate_bps_);
  w.write_f64(reserved_sigma_);
  w.write_u64(admitted_);
  w.write_u64(groups_.size());
  for (const GroupAggregate& g : groups_) {
    w.write_f64(g.sigma_bytes);
    w.write_f64(g.rho_bytes_per_s);
    w.write_f64(g.term);
  }
  w.write_f64(s_value_);
  w.end_section();
}

void AdmissionController::restore_state(CheckpointReader& r) {
  r.begin_section("admission");
  reserved_rate_bps_ = r.read_f64();
  reserved_sigma_ = r.read_f64();
  admitted_ = static_cast<std::size_t>(r.read_u64());
  groups_.assign(static_cast<std::size_t>(r.read_u64()), GroupAggregate{});
  for (GroupAggregate& g : groups_) {
    g.sigma_bytes = r.read_f64();
    g.rho_bytes_per_s = r.read_f64();
    g.term = r.read_f64();
  }
  s_value_ = r.read_f64();
  r.end_section();
}

}  // namespace bufq::admission
