// Photonic energy model: Beneš geometry, Eq. (1), transceivers, ledger.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "network/circuit.hpp"
#include "network/routing.hpp"
#include "photonics/benes.hpp"
#include "photonics/power_ledger.hpp"
#include "photonics/switch_energy.hpp"
#include "photonics/transceiver.hpp"
#include "topology/cluster.hpp"
#include "topology/config.hpp"

namespace risa::phot {
namespace {

TEST(Benes, StageAndCellCounts) {
  // 2*log2(N) - 1 stages, one cell per stage on a path (Lee & Dupuis [10]).
  EXPECT_EQ(benes_stages(2), 1u);
  EXPECT_EQ(benes_stages(4), 3u);
  EXPECT_EQ(benes_stages(8), 5u);
  EXPECT_EQ(benes_stages(64), 11u);    // the paper's box switch
  EXPECT_EQ(benes_stages(256), 15u);   // intra-rack switch
  EXPECT_EQ(benes_stages(512), 17u);   // inter-rack switch
  EXPECT_EQ(benes_path_cells(64), 11u);
  EXPECT_THROW((void)benes_stages(1), std::invalid_argument);
}

TEST(Benes, NonPowerOfTwoRoundsUp) {
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(64), 6u);
  EXPECT_EQ(ceil_log2(65), 7u);
  EXPECT_EQ(benes_stages(100), 13u);  // ceil(log2 100) = 7 -> 13 stages
}

TEST(SwitchEnergy, Equation1HandComputed) {
  // 64-port switch (n = 11 cells), T = 1000 tu at 1 s/tu, alpha = 0.9:
  //   switching = (11/2) * 13.75 mW * (1 us * log2 64) = 5.5*0.01375*6e-6 J
  //   trimming  = 0.9 * 11 * 22.67 mW * 1000 s
  SwitchEnergyConfig cfg;
  const SwitchEnergy e = circuit_switch_energy(cfg, 64, 1000.0);
  EXPECT_NEAR(e.switching_j, 5.5 * 0.01375 * 6e-6, 1e-12);
  EXPECT_NEAR(e.trimming_j, 0.9 * 11 * 0.02267 * 1000.0, 1e-9);
  EXPECT_NEAR(e.total_j(), e.switching_j + e.trimming_j, 1e-12);
}

TEST(SwitchEnergy, TrimmingDominatesSwitchingByConstruction) {
  // The lat_sw modeling assumption (DESIGN.md §2.5) is immaterial because
  // the one-time switching term is many orders below the holding term for
  // any realistic lifetime; pin that here.
  SwitchEnergyConfig cfg;
  for (std::uint32_t ports : {64u, 256u, 512u}) {
    const SwitchEnergy e = circuit_switch_energy(cfg, ports, 100.0);
    EXPECT_GT(e.trimming_j / e.switching_j, 1e6) << "ports=" << ports;
  }
}

TEST(SwitchEnergy, MonotoneInLifetimeAndPorts) {
  SwitchEnergyConfig cfg;
  EXPECT_LT(circuit_switch_energy(cfg, 64, 10.0).total_j(),
            circuit_switch_energy(cfg, 64, 20.0).total_j());
  EXPECT_LT(circuit_switch_energy(cfg, 64, 10.0).total_j(),
            circuit_switch_energy(cfg, 512, 10.0).total_j());
  EXPECT_THROW((void)circuit_switch_energy(cfg, 64, -1.0), std::invalid_argument);
}

TEST(SwitchEnergy, AlphaScalesTrimmingLinearly) {
  SwitchEnergyConfig lo, hi;
  lo.mrr.alpha = 0.5;
  hi.mrr.alpha = 1.0;
  const double t_lo = circuit_switch_energy(lo, 64, 100.0).trimming_j;
  const double t_hi = circuit_switch_energy(hi, 64, 100.0).trimming_j;
  EXPECT_NEAR(t_hi / t_lo, 2.0, 1e-12);
}

TEST(Mrr, AlphaBoundsEnforced) {
  MrrParams p;
  p.alpha = 0.4;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.alpha = 1.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.alpha = 0.9;
  EXPECT_NO_THROW(p.validate());
}

TEST(Transceiver, LinkRateMatchesLuxteraModule) {
  const TransceiverParams p;
  EXPECT_EQ(p.link_rate(), gbps(200.0));  // 8 x 25 Gb/s
}

TEST(Transceiver, PowerIsRateTimesEnergyPerBit) {
  const TransceiverParams p;
  // 10 Gb/s circuit over 2 hops: 2 modules/hop * 2 hops * 1e10 b/s * 22.5 pJ
  // = 0.9 W.
  EXPECT_NEAR(transceiver_power_w(p, gbps(10.0), 2), 0.9, 1e-9);
  EXPECT_NEAR(transceiver_energy_j(p, gbps(10.0), 2, 100.0), 90.0, 1e-6);
  EXPECT_THROW((void)transceiver_power_w(p, -1, 2), std::invalid_argument);
  EXPECT_THROW((void)transceiver_energy_j(p, 1, 2, -1.0), std::invalid_argument);
}

TEST(PowerLedger, ChargesSwitchesAndTransceiversAlongPath) {
  const topo::ClusterConfig cluster_cfg;
  net::Fabric fabric(cluster_cfg, net::FabricConfig{});
  net::Router router(fabric);
  net::CircuitTable table(router);
  PhotonicConfig photonics;
  PowerLedger ledger(photonics, fabric);

  // Intra-rack circuit: box(64) + rack(256) + box(64) switches, 2 hops.
  ASSERT_TRUE(table.connect(VmId{1}, net::FlowKind::CpuRam, gbps(10.0),
                            BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                            net::LinkSelectPolicy::FirstFit));

  const double lifetime_tu = 50.0;
  const VmEnergy e = ledger.charge_vm(table, VmId{1}, lifetime_tu);

  const double expected_trim =
      0.9 * (11 + 15 + 11) * 0.02267 * lifetime_tu;  // alpha*n*P_trim*T
  EXPECT_NEAR(e.switch_trimming_j, expected_trim, 1e-9);
  // 2 modules/hop * 2 hops * 1e10 b/s * 22.5e-12 J/b * 50 s = 45 J.
  EXPECT_NEAR(e.transceiver_j, 45.0, 1e-6);
  EXPECT_GT(e.switch_switching_j, 0.0);
  EXPECT_EQ(ledger.circuits_charged(), 1u);
  EXPECT_NEAR(ledger.total_energy_j(), e.total_j(), 1e-9);
  EXPECT_NEAR(ledger.average_power_w(100.0), e.total_j() / 100.0, 1e-9);
}

TEST(PowerLedger, InterRackCircuitCostsMore) {
  const topo::ClusterConfig cluster_cfg;
  net::Fabric fabric(cluster_cfg, net::FabricConfig{});
  net::Router router(fabric);
  net::CircuitTable table(router);
  PhotonicConfig photonics;
  PowerLedger intra_ledger(photonics, fabric);
  PowerLedger inter_ledger(photonics, fabric);

  ASSERT_TRUE(table.connect(VmId{1}, net::FlowKind::CpuRam, gbps(10.0),
                            BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                            net::LinkSelectPolicy::FirstFit));
  ASSERT_TRUE(table.connect(VmId{2}, net::FlowKind::CpuRam, gbps(10.0),
                            BoxId{0}, RackId{0}, BoxId{8}, RackId{1},
                            net::LinkSelectPolicy::FirstFit));
  const VmEnergy ei = intra_ledger.charge_vm(table, VmId{1}, 10.0);
  const VmEnergy ex = inter_ledger.charge_vm(table, VmId{2}, 10.0);
  // Inter-rack crosses 2 extra switches (incl. the 512-port core) and 2
  // extra transceiver hops -> strictly more of everything.
  EXPECT_GT(ex.switch_trimming_j, ei.switch_trimming_j);
  EXPECT_GT(ex.transceiver_j, ei.transceiver_j);
  // Ratio of trimming: (11+15+17+15+11)/(11+15+11) = 69/37.
  EXPECT_NEAR(ex.switch_trimming_j / ei.switch_trimming_j, 69.0 / 37.0, 1e-9);
}

TEST(PowerLedger, AveragePowerRequiresPositiveHorizon) {
  const topo::ClusterConfig cluster_cfg;
  net::Fabric fabric(cluster_cfg, net::FabricConfig{});
  PhotonicConfig photonics;
  PowerLedger ledger(photonics, fabric);
  EXPECT_THROW((void)ledger.average_power_w(0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(10.0), 0.0);
}

TEST(PhotonicConfig, SecondsPerTimeUnitScalesTrimming) {
  SwitchEnergyConfig cfg;
  cfg.seconds_per_time_unit = 2.0;
  const double doubled = circuit_switch_energy(cfg, 64, 100.0).trimming_j;
  cfg.seconds_per_time_unit = 1.0;
  const double base = circuit_switch_energy(cfg, 64, 100.0).trimming_j;
  EXPECT_NEAR(doubled / base, 2.0, 1e-12);
}

// --- Per-switch coefficient table vs Eq. (1) written out ------------------

// The ledger reads precomputed per-switch coefficients.  These references
// are Eq. (1) spelled out as a direct per-switch product, so an exact
// EXPECT_EQ on doubles proves the table keeps every bit.
double eq1_switching_j(const SwitchEnergyConfig& cfg, std::uint32_t ports) {
  const auto n = static_cast<double>(benes_path_cells(ports));
  return (n / 2.0) * cfg.mrr.switch_power_w *
         (cfg.switch_latency_base_s * static_cast<double>(ceil_log2(ports)));
}

double eq1_trimming_j(const SwitchEnergyConfig& cfg, std::uint32_t ports,
                      double lifetime_tu) {
  const auto n = static_cast<double>(benes_path_cells(ports));
  return cfg.mrr.alpha * n * cfg.mrr.trim_power_w * lifetime_tu *
         cfg.seconds_per_time_unit;
}

/// Add the energy of one circuit held `tu` time units into `e`, in the
/// ledger's accumulation order (each switch, then the transceivers).
void add_reference(const PhotonicConfig& cfg, const net::Fabric& fabric,
                   const net::Circuit& c, double tu, VmEnergy& e) {
  for (SwitchId sw : fabric.path_switches(c.path)) {
    const std::uint32_t ports = fabric.switch_node(sw).ports;
    e.switch_switching_j += eq1_switching_j(cfg.switch_energy, ports);
    e.switch_trimming_j += eq1_trimming_j(cfg.switch_energy, ports, tu);
  }
  e.transceiver_j += transceiver_energy_j(
      cfg.transceiver, c.bandwidth, c.path.hop_count(),
      tu * cfg.switch_energy.seconds_per_time_unit);
}

void expect_bits(const VmEnergy& got, const VmEnergy& want) {
  EXPECT_EQ(got.switch_switching_j, want.switch_switching_j);
  EXPECT_EQ(got.switch_trimming_j, want.switch_trimming_j);
  EXPECT_EQ(got.transceiver_j, want.transceiver_j);
}

/// Route random circuits across `fabric_cfg`, then drive every ledger entry
/// point with random lifetimes (0 included) and compare against the
/// written-out formulas bit for bit.  Returns the switch kinds crossed.
std::set<net::SwitchKind> check_ledger_bits(const net::FabricConfig& fabric_cfg,
                                            std::uint64_t seed) {
  const topo::ClusterConfig cluster_cfg;
  const topo::Cluster cluster(cluster_cfg);
  net::Fabric fabric(cluster_cfg, fabric_cfg);
  net::Router router(fabric);
  net::CircuitTable table(router);
  PhotonicConfig cfg;
  // An inexact time-unit scale, so a reordered product would show.
  cfg.switch_energy.seconds_per_time_unit = 0.1;
  cfg.switch_energy.mrr.alpha = 0.7;
  PowerLedger ledger(cfg, fabric);
  Rng rng(seed);

  const auto random_box = [&] {
    const auto b = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cluster.num_boxes()) - 1));
    return BoxId{b};
  };
  const auto random_tu = [&] {
    return rng.uniform_int(0, 3) == 0 ? 0.0 : rng.uniform(0.0, 1000.0);
  };

  constexpr std::uint32_t kVms = 64;
  std::set<net::SwitchKind> kinds;
  VmEnergy total;
  std::size_t charged = 0;
  std::size_t refunded = 0;
  for (std::uint32_t v = 0; v < kVms; ++v) {
    for (net::FlowKind flow :
         {net::FlowKind::CpuRam, net::FlowKind::RamStorage}) {
      const BoxId a = random_box();
      const BoxId b = random_box();
      const MbitsPerSec bw = gbps(static_cast<double>(rng.uniform_int(1, 4)));
      net::CircuitPath path;
      if (!router.find_path(a, cluster.box(a).rack(), b, cluster.box(b).rack(),
                            bw, net::LinkSelectPolicy::FirstFit, path)) {
        continue;
      }
      for (SwitchId sw : fabric.path_switches(path)) {
        kinds.insert(fabric.switch_node(sw).kind);
      }
      EXPECT_TRUE(table.establish(VmId{v}, flow, bw, path).ok());
    }

    // Interval open: charge_vm and holding power.
    const double life = random_tu();
    VmEnergy want_vm;
    table.for_each_circuit_of(VmId{v}, [&](const net::Circuit& c) {
      VmEnergy e;
      add_reference(cfg, fabric, c, life, e);
      want_vm.switch_switching_j += e.switch_switching_j;
      want_vm.switch_trimming_j += e.switch_trimming_j;
      want_vm.transceiver_j += e.transceiver_j;
      total.switch_switching_j += e.switch_switching_j;
      total.switch_trimming_j += e.switch_trimming_j;
      total.transceiver_j += e.transceiver_j;
      ++charged;

      double want_w = 0.0;
      for (SwitchId sw : fabric.path_switches(c.path)) {
        const auto n = static_cast<double>(
            benes_path_cells(fabric.switch_node(sw).ports));
        want_w += cfg.switch_energy.mrr.alpha * n *
                  cfg.switch_energy.mrr.trim_power_w;
      }
      want_w += transceiver_power_w(cfg.transceiver, c.bandwidth,
                                    c.path.hop_count());
      EXPECT_EQ(ledger.holding_power_w(c), want_w);
    });
    expect_bits(ledger.charge_vm(table, VmId{v}, life), want_vm);
  }

  // Settlement: whole-VM refunds on even VMs (one accumulator across the
  // VM's circuits, subtracted once), per-circuit refunds on odd ones.  The
  // switching term is never refunded.
  for (std::uint32_t v = 0; v < kVms; ++v) {
    const double unused = random_tu();
    if (v % 2 == 0) {
      VmEnergy want;
      table.for_each_circuit_of(VmId{v}, [&](const net::Circuit& c) {
        if (unused <= 0.0) return;
        add_reference(cfg, fabric, c, unused, want);
        ++refunded;
      });
      want.switch_switching_j = 0.0;
      expect_bits(ledger.refund_vm_truncation(table, VmId{v}, unused), want);
      total.switch_trimming_j -= want.switch_trimming_j;
      total.transceiver_j -= want.transceiver_j;
    } else {
      table.for_each_circuit_of(VmId{v}, [&](const net::Circuit& c) {
        VmEnergy want;
        if (unused > 0.0) {
          add_reference(cfg, fabric, c, unused, want);
          want.switch_switching_j = 0.0;
          ++refunded;
        }
        expect_bits(ledger.refund_circuit_truncation(c, unused), want);
        total.switch_trimming_j -= want.switch_trimming_j;
        total.transceiver_j -= want.transceiver_j;
      });
    }
  }

  // A negative lifetime still throws and leaves the totals untouched.
  table.for_each_circuit_of(VmId{0}, [&](const net::Circuit& c) {
    EXPECT_THROW((void)ledger.charge_circuit(c, -1.0), std::invalid_argument);
  });

  expect_bits(ledger.totals(), total);
  EXPECT_EQ(ledger.circuits_charged(), charged);
  EXPECT_EQ(ledger.circuits_refunded(), refunded);
  EXPECT_GT(charged, kVms);
  EXPECT_GT(refunded, 0u);
  return kinds;
}

TEST(PowerLedger, CoefficientTableIsBitIdenticalTwoTier) {
  const auto kinds = check_ledger_bits(net::FabricConfig{}, 11);
  EXPECT_EQ(kinds, (std::set<net::SwitchKind>{net::SwitchKind::BoxSwitch,
                                              net::SwitchKind::RackSwitch,
                                              net::SwitchKind::InterRackSwitch}));
}

TEST(PowerLedger, CoefficientTableIsBitIdenticalThreeTier) {
  // Non-power-of-two radices on two tiers exercise the ceil_log2 rounding.
  net::FabricConfig fc;
  fc.racks_per_pod = 6;
  fc.rack_switch_ports = 200;
  fc.pod_switch_ports = 100;
  const auto kinds = check_ledger_bits(fc, 12);
  EXPECT_EQ(kinds, (std::set<net::SwitchKind>{
                       net::SwitchKind::BoxSwitch, net::SwitchKind::RackSwitch,
                       net::SwitchKind::InterRackSwitch,
                       net::SwitchKind::PodSwitch}));
}

}  // namespace
}  // namespace risa::phot
