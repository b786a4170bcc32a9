#include "traffic/aimd.h"

#include <gtest/gtest.h>

#include "core/buffer_manager.h"
#include "core/sharing.h"
#include "sched/fifo.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

constexpr std::int64_t kPkt = 500;

AimdSource::Params default_params(FlowId flow = 0) {
  return AimdSource::Params{
      .flow = flow,
      .initial_rate = Rate::megabits_per_second(1.0),
      .floor_rate = Rate::megabits_per_second(0.5),
      .ceiling_rate = Rate::megabits_per_second(100.0),
      .additive_increase = Rate::megabits_per_second(0.5),
      .multiplicative_decrease = 0.5,
      .rtt = Time::milliseconds(20),
      .packet_bytes = kPkt,
  };
}

class NullSink final : public PacketSink {
 public:
  void accept(const Packet&) override {}
};

TEST(AimdSourceTest, RampsUpWithoutLoss) {
  Simulator sim;
  NullSink sink;
  AimdSource source{sim, sink, default_params()};
  source.start();
  sim.run_until(Time::seconds(2));
  // 100 RTTs of +0.5 Mb/s from 1 Mb/s, no losses: hits far above start.
  EXPECT_GT(source.current_rate().mbps(), 40.0);
  EXPECT_EQ(source.decreases(), 0u);
}

TEST(AimdSourceTest, CeilingCapsGrowth) {
  Simulator sim;
  NullSink sink;
  auto params = default_params();
  params.ceiling_rate = Rate::megabits_per_second(5.0);
  AimdSource source{sim, sink, params};
  source.start();
  sim.run_until(Time::seconds(2));
  EXPECT_DOUBLE_EQ(source.current_rate().mbps(), 5.0);
}

TEST(AimdSourceTest, LossHalvesRateOncePerRtt) {
  Simulator sim;
  NullSink sink;
  auto params = default_params();
  params.initial_rate = Rate::megabits_per_second(8.0);
  AimdSource source{sim, sink, params};
  source.start();
  // Signal several losses within one RTT: only one decrease applies.
  sim.run_until(Time::milliseconds(10));
  source.on_loss();
  source.on_loss();
  source.on_loss();
  sim.run_until(Time::milliseconds(25));
  EXPECT_EQ(source.decreases(), 1u);
  EXPECT_NEAR(source.current_rate().mbps(), 4.0, 1e-9);
}

TEST(AimdSourceTest, FloorBoundsDecrease) {
  Simulator sim;
  NullSink sink;
  auto params = default_params();
  params.initial_rate = Rate::megabits_per_second(1.0);
  params.floor_rate = Rate::megabits_per_second(0.8);
  AimdSource source{sim, sink, params};
  source.start();
  for (int i = 0; i < 10; ++i) {
    source.on_loss();
    sim.run_until(sim.now() + Time::milliseconds(20));
  }
  EXPECT_GE(source.current_rate().mbps(), 0.8 - 1e-9);
}

TEST(AimdSourceTest, ConvergesNearBottleneckOnOwnLink) {
  // AIMD alone on a 10 Mb/s link with a small buffer: the classic
  // sawtooth around the bottleneck rate.
  Simulator sim;
  TailDropManager mgr{ByteSize::kilobytes(30.0), 1};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, Rate::megabits_per_second(10.0)};

  AimdSource source{sim, link, default_params()};
  fifo.set_drop_handler([&](const Packet&, Time) { source.on_loss(); });

  std::int64_t delivered = 0;
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t > Time::seconds(5)) delivered += p.size_bytes;
  });
  source.start();
  sim.run_until(Time::seconds(25));

  const double goodput_mbps = static_cast<double>(delivered) * 8.0 / 20.0 * 1e-6;
  EXPECT_GT(goodput_mbps, 6.5);   // at least ~2/3 of the bottleneck
  EXPECT_LE(goodput_mbps, 10.0);  // and of course no more than the link
  EXPECT_GT(source.decreases(), 5u) << "should have sawtoothed";
}

TEST(AimdSourceTest, AdaptiveClassBeatsBlockedClassUnderSelectiveSharing) {
  // The Section 5 policy in action: two identical AIMD flows, one
  // classified adaptive and one blocked, with equal reservations.  The
  // adaptive one may grow into the holes; the blocked one saturates at
  // its reservation-sized share and keeps getting loss signals.
  Simulator sim;
  BufferSharingManager mgr{
      ByteSize::kilobytes(100.0),
      std::vector<std::int64_t>{10'000, 10'000},
      {SharingClass::kAdaptive, SharingClass::kBlocked},
      ByteSize::kilobytes(10.0)};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, Rate::megabits_per_second(10.0)};

  AimdSource adaptive{sim, link, default_params(0)};
  AimdSource blocked{sim, link, default_params(1)};
  fifo.set_drop_handler([&](const Packet& p, Time) {
    (p.flow == 0 ? adaptive : blocked).on_loss();
  });

  std::vector<std::int64_t> delivered(2, 0);
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t > Time::seconds(5)) delivered[static_cast<std::size_t>(p.flow)] += p.size_bytes;
  });
  adaptive.start();
  blocked.start();
  sim.run_until(Time::seconds(25));

  EXPECT_GT(delivered[0], delivered[1])
      << "the adaptive-classified flow should capture the idle buffer";
}

}  // namespace
}  // namespace bufq
