#include "gpufft/sharded.h"

#include <algorithm>
#include <array>
#include <deque>
#include <string>
#include <utility>

#include "fft/factor.h"
#include "gpufft/cache.h"
#include "gpufft/real3d.h"
#include "gpufft/real_kernels.h"
#include "gpufft/registry.h"
#include "gpufft/smallfft.h"
#include "gpufft/staging.h"

namespace repro::gpufft {
namespace {

/// Largest prefix of `alive` whose size divides both phase extents
/// (shards for phase 1, n/shards for phase 2). Size 1 always qualifies —
/// a single survivor runs the out-of-core schedule on one card.
std::vector<std::size_t> usable_members(std::vector<std::size_t> alive,
                                        std::size_t shards,
                                        std::size_t local_nz) {
  std::size_t k = alive.size();
  while (k > 1 && (shards % k != 0 || local_nz % k != 0)) --k;
  alive.resize(k);
  return alive;
}

/// True when every ordered pair of `members` has a fabric route whose
/// hop devices (including forwarders outside the member set) are all
/// alive. `group == nullptr` skips the aliveness check (the planning
/// oracle assumes a healthy fleet).
bool peer_route_ok(const sim::Topology& topo, const sim::DeviceGroup* group,
                   std::span<const std::size_t> members) {
  if (members.size() < 2 || !topo.peer_capable()) return false;
  for (std::size_t a : members) {
    for (std::size_t b : members) {
      if (a == b) continue;
      const auto hops = topo.route(a, b);
      if (hops.size() < 2) return false;
      if (group != nullptr) {
        for (std::size_t h : hops) {
          if (group->device(h).lost()) return false;
        }
      }
    }
  }
  return true;
}

/// The member set plus the geometry it runs (shard_layout against the
/// live group). Pencil wants the largest alive prefix k = local_nz * py
/// (py >= 2 a divisor of n) that is fully peer-routable; anything else
/// falls back to the slab prefix rule, with the exchange going direct
/// when the fabric can route it and through host staging otherwise. A
/// single member is always host-staged — that degenerate path is pinned
/// to the out-of-core timeline by test.
struct ResolvedShard {
  std::vector<std::size_t> members;
  ShardLayout layout;
};

ResolvedShard resolve_shard(const sim::Topology& topo,
                            const sim::DeviceGroup* group,
                            std::vector<std::size_t> alive, std::size_t n,
                            std::size_t shards, Decomposition preferred) {
  const std::size_t local_nz = n / shards;
  ResolvedShard r;
  if (alive.empty()) return r;
  if (preferred == Decomposition::Pencil) {
    for (std::size_t k = alive.size(); k >= 2 * local_nz; --k) {
      if (k % local_nz != 0) continue;
      const std::size_t py = k / local_nz;
      if (py < 2 || n % py != 0) continue;
      if (!peer_route_ok(topo, group,
                         std::span<const std::size_t>(alive.data(), k))) {
        continue;
      }
      // Phase 1 still assigns whole residues: the largest divisor of
      // `shards` that fits the member count owns them round-robin.
      std::size_t p1 = std::min(k, shards);
      while (shards % p1 != 0) --p1;
      r.members.assign(alive.begin(),
                       alive.begin() + static_cast<std::ptrdiff_t>(k));
      r.layout = {Decomposition::Pencil, Exchange::Peer, k, p1, py};
      return r;
    }
  }
  r.members = usable_members(std::move(alive), shards, local_nz);
  const std::size_t k = r.members.size();
  const bool peer = peer_route_ok(topo, group, r.members);
  r.layout = {Decomposition::Slab,
              peer ? Exchange::Peer : Exchange::HostStaged, k, k, 1};
  return r;
}

/// Member mi's phase-2 work: `groups` plane groups from `first`, each cut
/// to Y block `block` of the layout's y_blocks. Slab: a contiguous block
/// of local_nz/members whole groups — the same blocks host-staged phase 2
/// reads. Pencil: one (plane group, Y block) unit.
struct Phase2Unit {
  std::size_t first{}, groups{}, block{};
};

Phase2Unit phase2_unit(const ShardLayout& layout, std::size_t local_nz,
                       std::size_t mi) {
  if (layout.decomp == Decomposition::Slab) {
    const std::size_t gpd = local_nz / layout.members;
    return {mi * gpd, gpd, 0};
  }
  return {mi / layout.y_blocks, 1, mi % layout.y_blocks};
}

/// Attribute a failed per-pass plausibility check (pass_energy_plausible
/// over the cube's `points`) to `dev`, the member that computed the pass.
void check_pass_energy(Device& dev, const char* check, double e_in,
                       double e_out, std::size_t points) {
  if (!pass_energy_plausible(e_in, e_out, points)) {
    fail_pass_check(
        dev, check,
        4.0 * static_cast<double>(points) * std::max(e_in, 1e-300), e_out);
  }
}

/// Per-member phase-2 plausibility check over the final volume: member
/// `mi` wrote the rows of its phase-2 unit in every layout region of
/// `out`, and any legitimate DFT composition keeps their energy within
/// the scale-free pass bound. Runs after the group drains, so a
/// phase-2 KernelCorrupt is caught with the producing member attributed
/// before the wrapper's end-to-end check would blame the plan's primary
/// device.
void verify_phase2_regions(sim::DeviceGroup& group,
                           const std::vector<std::size_t>& members,
                           const ShardLayout& layout, const PlaneLayout& pl,
                           std::size_t shards, std::span<const cxf> out,
                           double e_in) {
  const std::size_t n = pl.rows;
  const std::size_t local_nz = n / shards;
  const std::size_t nm = members.size();
  const PlaneLayout unit = pl.y_block(n / layout.y_blocks);
  for (std::size_t mi = 0; mi < nm; ++mi) {
    const Phase2Unit u = phase2_unit(layout, local_nz, mi);
    double e = 0.0;
    for (std::size_t gl = 0; gl < u.groups; ++gl) {
      for (std::size_t k2 = 0; k2 < shards; ++k2) {
        const std::size_t z = u.first + gl + local_nz * k2;
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          e += span_energy<float>(out.subspan(
              pl.offset(r, n, z) + u.block * unit.elems(r), unit.elems(r)));
        }
      }
    }
    check_pass_energy(group.device(members[mi]), "phase2-energy", e_in, e,
                      n * n * n);
  }
}

/// Sum `t`'s duration buckets into `into` (batch totals across volumes).
void accumulate(ShardedTiming& into, const ShardedTiming& t) {
  if (into.devices.size() < t.devices.size()) {
    into.devices.resize(t.devices.size());
  }
  for (std::size_t d = 0; d < t.devices.size(); ++d) {
    into.devices[d] += t.devices[d];
  }
  into.barrier_ms += t.barrier_ms;
}

}  // namespace

ShardedExecutor::ShardedExecutor(sim::DeviceGroup& group,
                                 const PlanDesc& desc, TuneConfig tune)
    : FftPlanT<float>(group.device(0), desc),
      group_(&group),
      n_(desc.shape.nx),
      shards_(desc.splits),
      planes_(PlaneLayout::of(desc.layout, n_)),
      slab_shape_{n_, n_, n_ / shards_},
      host_work_(planes_.plane() * n_),
      staging_lease_(group, planes_.plane() * n_ * sizeof(cxf)) {
  desc_.tune = tune;
}

void ShardedExecutor::acquire_slab_plans(const PlanDesc& slab) {
  slab_plans_.reserve(group_->size());
  for (std::size_t d = 0; d < group_->size(); ++d) {
    Device& dev = group_->device(d);
    slab_plans_.push_back(
        dev.lost() ? nullptr
                   : PlanRegistry::of(dev).get_or_create(
                         slab_plan_desc(slab, desc_.tune)));
  }
}

std::vector<StepTiming> ShardedExecutor::execute_impl(DeviceBuffer<cxf>&) {
  REPRO_FAIL(
      "sharded plans transform host-resident volumes distributed across a "
      "device group; use execute_host()");
}

ShardedTiming ShardedExecutor::execute(std::span<cxf> host_data) {
  check_host_volume(host_data);
  // Each attempt resolves the layout over the schedulable members, so a
  // rerun re-shards over the survivors (possibly dropping from pencil to
  // slab, or to host staging when a torus forwarder died).
  return with_plan_context(desc_, [&] {
    return verified_span_run<float>(
        this->device(), this->exec_policy(), desc_, host_data, [&] {
          return retry_past_lost_cards(*group_, host_data, [&] {
            const ResolvedShard r =
                resolve_shard(group_->topo(), group_,
                              group_->schedulable_members(), n_, shards_,
                              decomp_);
            return run_on(r.members, r.layout, host_data);
          });
        });
  });
}

std::vector<StepTiming> ShardedExecutor::execute_host(std::span<cxf> data) {
  // The rows are schedule-independent duration sums across the fleet;
  // execute() leaves last_total_ms() at the overlapped group makespan.
  return table12_rows(execute(data).sum(), buffer_elements());
}

std::vector<StepTiming> ShardedExecutor::execute_batch_host(
    std::span<const std::span<cxf>> volumes) {
  return execute_host_back_to_back(volumes, *group_);
}

void ShardedExecutor::phase1_transform(std::size_t d, DeviceBuffer<cxf>& slab,
                                       sim::Stream& s, double& ms) {
  for (const auto& step : slab_plans_[d]->execute_async(slab, s)) {
    ms += step.ms;
  }
}

void ShardedExecutor::phase2_epilogue(std::size_t, DeviceBuffer<cxf>&,
                                      sim::Stream&, double&) {}

/// One pair of slab leases + streams per member — the out-of-core
/// double-buffering generalized to the fleet. Leases and streams are
/// RAII, so an error unwinding through a frame holding a ctx releases
/// every arena block and folds every stream timeline; the pipelined batch
/// keeps kPipelineContexts contexts alive so consecutive volumes overlap.
struct ShardedExecutor::VolumeCtx {
  std::vector<std::size_t> members;  ///< group ordinals this ctx spans
  ShardLayout layout;
  std::vector<ResourceCache::Lease<float>> leases;
  std::vector<std::unique_ptr<sim::Stream>> streams;
  /// Peer exchanges only: one exchange stream per *group ordinal* (the
  /// d2d_async indexing — torus routes forward through devices that are
  /// not members), and one Event per member marking its last receive.
  std::vector<sim::Stream*> exch;
  std::vector<sim::Event> recv_done;

  DeviceBuffer<cxf>& slab(std::size_t mi, std::size_t i) {
    return leases[2 * mi + i].buffer();
  }
  /// Peer receive buffer of member `mi` (appended after the slab pairs).
  DeviceBuffer<cxf>& recv(std::size_t mi) {
    return leases[2 * members.size() + mi].buffer();
  }
  sim::Stream& stream(std::size_t mi, std::size_t i) {
    return *streams[2 * mi + i];
  }
  [[nodiscard]] double max_tail_ms() const {
    double ms = 0.0;
    for (const auto& s : streams) ms = std::max(ms, s->ready_ms());
    return ms;
  }
  void fence(double ms) {
    for (auto& s : streams) s->wait_until_ms(ms);
  }
};

std::unique_ptr<ShardedExecutor::VolumeCtx> ShardedExecutor::make_ctx(
    const std::vector<std::size_t>& members, const ShardLayout& layout) {
  const std::size_t plane = planes_.plane();
  const std::size_t slab_elems = plane * std::max(n_ / shards_, shards_);
  auto ctx = std::make_unique<VolumeCtx>();
  ctx->members = members;
  ctx->layout = layout;
  const std::size_t nm = members.size();
  const bool peer = layout.exchange == Exchange::Peer;
  ctx->leases.reserve(2 * nm + (peer ? nm : 0));
  ctx->streams.reserve(2 * nm + (peer ? group_->size() : 0));
  for (std::size_t mi = 0; mi < nm; ++mi) {
    auto& dev = group_->device(members[mi]);
    ctx->leases.push_back(ResourceCache::of(dev).lease<float>(slab_elems));
    ctx->leases.push_back(ResourceCache::of(dev).lease<float>(slab_elems));
    ctx->streams.push_back(std::make_unique<sim::Stream>(dev));
    ctx->streams.push_back(std::make_unique<sim::Stream>(dev));
  }
  if (peer) {
    // Per-member receive buffer: the S planes of every group of the
    // member's phase-2 unit, region-major, land here directly — no host
    // staging volume on the peer path.
    const std::size_t recv_elems =
        phase2_unit(layout, n_ / shards_, 0).groups * shards_ *
        planes_.y_block(n_ / layout.y_blocks).plane();
    for (std::size_t mi = 0; mi < nm; ++mi) {
      auto& dev = group_->device(members[mi]);
      ctx->leases.push_back(ResourceCache::of(dev).lease<float>(recv_elems));
    }
    ctx->recv_done.resize(nm);
    ctx->exch.assign(group_->size(), nullptr);
    for (std::size_t d = 0; d < group_->size(); ++d) {
      if (group_->device(d).lost()) continue;
      ctx->streams.push_back(
          std::make_unique<sim::Stream>(group_->device(d)));
      ctx->exch[d] = ctx->streams.back().get();
    }
  }
  return ctx;
}

void ShardedExecutor::enqueue_phase1(VolumeCtx& ctx,
                                     std::span<cxf> host_data,
                                     std::span<cxf> host_work,
                                     ShardedTiming& timing) {
  const PlaneLayout& pl = planes_;
  const std::size_t plane = pl.plane();
  const std::size_t local_nz = n_ / shards_;
  const std::size_t nm = ctx.members.size();
  const bool peer = ctx.layout.exchange == Exchange::Peer;
  const std::size_t nm1 = peer ? ctx.layout.phase1_members : nm;
  const PlaneLayout unit = pl.y_block(n_ / ctx.layout.y_blocks);
  const std::span<const cxf> src = host_data;
  const StagePolicy& sp = this->exec_policy().staging;
  const bool verify = this->exec_policy().verify != VerifyPolicy::Off;
  auto charge = [&timing](const std::vector<sim::PeerLeg>& legs) {
    for (const auto& leg : legs) {
      timing.devices[leg.from].d2h1_ms += leg.dur_ms;
      if (leg.to != leg.from) timing.devices[leg.to].h2d2_ms += leg.dur_ms;
    }
  };

  // ---- Phase 1: residue I on member I mod nm1 (slab FFT + twiddle) ----
  for (std::size_t residue = 0; residue < shards_; ++residue) {
    const std::size_t mi = residue % nm1;
    const std::size_t d = ctx.members[mi];
    const std::size_t local = residue / nm1;
    auto& dev = group_->device(d);
    ShardTiming& t = timing.devices[d];
    sim::Stream& s = ctx.stream(mi, local % 2);
    auto& slab = ctx.slab(mi, local % 2);
    const unsigned grid = desc_.tune.grid_for(dev.spec());

    for (std::size_t j = 0; j < local_nz; ++j) {
      const std::size_t z = residue + shards_ * j;
      for (std::size_t r = 0; r < pl.regions(); ++r) {
        t.h2d1_ms += staged_h2d(dev, slab,
                                src.subspan(pl.offset(r, n_, z), pl.elems(r)),
                                &s, pl.offset(r, local_nz, j), sp);
      }
    }

    phase1_transform(d, slab, s, t.fft1_ms);

    for (std::size_t r = 0; r < pl.regions(); ++r) {
      SlabTwiddleKernel tw(slab, Shape3{pl.widths[r], pl.rows, local_nz}, n_,
                           residue, desc_.dir, grid, pl.offset(r, local_nz),
                           desc_.tune.threads_per_block);
      t.twiddle_ms += dev.launch_async(tw, s).total_ms;
    }

    if (verify) {
      // Per-pass ABFT guard: the residue's slab output is visible now
      // (functional effects apply at enqueue), so check it before the
      // exchange spreads one member's corruption across the fleet — and
      // attribute a failure to the member that computed the pass. The
      // slab's regions are contiguous, so one prefix covers them all.
      double e_res = 0.0;
      for (std::size_t j = 0; j < local_nz; ++j) {
        const std::size_t z = residue + shards_ * j;
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          e_res += span_energy<float>(
              src.subspan(pl.offset(r, n_, z), pl.elems(r)));
        }
      }
      const double e_out = span_energy<float>(
          std::span<const cxf>(slab.span()).first(local_nz * plane));
      check_pass_energy(dev, "pass-energy", e_res, e_out, n_ * n_ * n_);
    }

    if (!peer) {
      // The download IS the all-to-all send: the planes land in the host
      // staging volume that every card's phase 2 reads back.
      for (std::size_t k = 0; k < local_nz; ++k) {
        const std::size_t z = residue + shards_ * k;
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          t.d2h1_ms += staged_d2h(
              dev, host_work.subspan(pl.offset(r, n_, z), pl.elems(r)), slab,
              &s, pl.offset(r, local_nz, k), sp);
        }
        t.exchange_bytes += plane * sizeof(cxf);
      }
      continue;
    }

    // Peer exchange: the planes leave the producer as direct d2d legs in
    // ring order starting at the owner (self-copy first, then mi+1, ...)
    // so concurrent residues drive different links first and the
    // per-link FIFOs fill instead of hot-spotting member 0. Each leg
    // carries one region and lands at its region-major receive offset.
    for (std::size_t ring = 0; ring < nm; ++ring) {
      const std::size_t emi = (mi + ring) % nm;
      const Phase2Unit u = phase2_unit(ctx.layout, local_nz, emi);
      for (std::size_t gl = 0; gl < u.groups; ++gl) {
        const std::size_t j = u.first + gl;  // slab plane == group k
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          charge(group_->d2d_async(
              d, ctx.members[emi], slab,
              pl.offset(r, local_nz, j) + u.block * unit.elems(r),
              ctx.recv(emi),
              unit.offset(r, u.groups * shards_, gl * shards_ + residue),
              unit.elems(r), s, ctx.exch));
        }
        t.exchange_bytes += unit.plane() * sizeof(cxf);
      }
    }
  }

  if (peer) {
    // Per-member receive fence: an Event on each member's exchange
    // stream marks its last receive (and any forwarding it carried).
    for (std::size_t mi = 0; mi < nm; ++mi) {
      ctx.exch[ctx.members[mi]]->record(ctx.recv_done[mi]);
    }
  }
}

void ShardedExecutor::enqueue_phase2(VolumeCtx& ctx,
                                     std::span<cxf> host_data,
                                     std::span<cxf> host_work,
                                     double vol_start_ms,
                                     ShardedTiming& timing) {
  const PlaneLayout& pl = planes_;
  const std::size_t local_nz = n_ / shards_;
  const std::size_t nm = ctx.members.size();
  const bool peer = ctx.layout.exchange == Exchange::Peer;
  const std::span<const cxf> staged = host_work;
  const StagePolicy& sp = this->exec_policy().staging;

  double latest = vol_start_ms;
  if (!peer) {
    // Group-wide phase boundary: every phase-2 group gathers one plane
    // from each phase-1 residue — i.e. from every card — so all streams
    // fence at the maximum stream tail. The members share one time
    // origin, which is what makes the absolute wait_until meaningful
    // across devices; for a group of one this degenerates to the
    // out-of-core event pair exactly.
    for (const auto& s : ctx.streams) {
      latest = std::max(latest, s->ready_ms());
    }
    ctx.fence(latest);
  } else {
    // Peer exchange: no group-wide barrier. Each member fences its own
    // two streams on (a) its own phase-1 tails (its slabs fed the
    // self-copies) and (b) its receive Event — the last d2d leg landing
    // in its receive buffer. barrier_ms reports the latest member fence
    // for continuity with the host-staged breakdown.
    for (std::size_t mi = 0; mi < nm; ++mi) {
      sim::Stream& s0 = ctx.stream(mi, 0);
      sim::Stream& s1 = ctx.stream(mi, 1);
      const double own = std::max(s0.ready_ms(), s1.ready_ms());
      s0.wait(ctx.recv_done[mi]);
      s1.wait(ctx.recv_done[mi]);
      s0.wait_until_ms(own);
      s1.wait_until_ms(own);
      latest = std::max({latest, own, ctx.recv_done[mi].time_ms()});
    }
  }
  timing.barrier_ms = latest - vol_start_ms;

  // ---- Phase 2: each member's unit, S-point pencil FFTs per group ----
  const PlaneLayout unit = pl.y_block(n_ / ctx.layout.y_blocks);
  for (std::size_t mi = 0; mi < nm; ++mi) {
    const std::size_t e = ctx.members[mi];
    const Phase2Unit u = phase2_unit(ctx.layout, local_nz, mi);
    auto& dev = group_->device(e);
    ShardTiming& t = timing.devices[e];
    const unsigned grid = desc_.tune.grid_for(dev.spec());
    for (std::size_t gl = 0; gl < u.groups; ++gl) {
      const std::size_t k = u.first + gl;
      sim::Stream& s = ctx.stream(mi, gl % 2);
      auto& slab = ctx.slab(mi, gl % 2);
      // The group's S planes sit region-major from `at` in `buf`: a slab
      // from element 0, or in place in the receive buffer.
      DeviceBuffer<cxf>* buf = &slab;
      std::size_t at = 0;
      if (!peer) {
        // Host-staged layouts are always slab: the unit is whole planes.
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          t.h2d2_ms += staged_h2d(
              dev, slab,
              staged.subspan(pl.offset(r, n_, shards_ * k),
                             shards_ * pl.elems(r)),
              &s, pl.offset(r, shards_), sp);
        }
        t.exchange_bytes += shards_ * pl.plane() * sizeof(cxf);
      } else if (pl.regions() == 1) {
        // The group is contiguous in the receive buffer: run in place,
        // no upload leg.
        buf = &ctx.recv(mi);
        at = gl * shards_ * unit.plane();
      } else {
        // Gather the group's regions out of the receive buffer with local
        // d2d copies, then run on the slab. The gather is the receive
        // half of the exchange, so its time lands in the h2d2 bucket.
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          for (const auto& leg : group_->d2d_async(
                   e, e, ctx.recv(mi),
                   unit.offset(r, u.groups * shards_, gl * shards_), slab,
                   unit.offset(r, shards_), shards_ * unit.elems(r), s,
                   ctx.exch)) {
            t.h2d2_ms += leg.dur_ms;
          }
        }
      }

      for (std::size_t r = 0; r < pl.regions(); ++r) {
        ZPencilFftKernel fft(*buf, Shape3{unit.widths[r], unit.rows, shards_},
                             desc_.dir, grid, at + unit.offset(r, shards_),
                             desc_.tune.threads_per_block);
        t.fft2_ms += dev.launch_async(fft, s).total_ms;
      }
      phase2_epilogue(e, *buf, s, t.fft2_ms);

      // Downloads scatter each output plane's unit rows.
      for (std::size_t k2 = 0; k2 < shards_; ++k2) {
        const std::size_t z = k + local_nz * k2;
        for (std::size_t r = 0; r < pl.regions(); ++r) {
          t.d2h2_ms += staged_d2h(
              dev,
              host_data.subspan(pl.offset(r, n_, z) + u.block * unit.elems(r),
                                unit.elems(r)),
              *buf, &s, at + unit.offset(r, shards_, k2), sp);
        }
      }
    }
  }
}

ShardedTiming ShardedExecutor::run_on(const std::vector<std::size_t>& members,
                                      const ShardLayout& layout,
                                      std::span<cxf> host_data) {
  const bool verify = this->exec_policy().verify != VerifyPolicy::Off;
  const double e_in =
      verify ? span_energy<float>(std::span<const cxf>(host_data)) : 0.0;
  auto ctx = make_ctx(members, layout);
  const double start_ms = group_->elapsed_ms();
  ShardedTiming timing;
  // Buckets stay indexed by group ordinal (stable reporting across
  // failovers); a lost card simply keeps zero rows.
  timing.devices.resize(group_->size());
  enqueue_phase1(*ctx, host_data, host_work_, timing);
  enqueue_phase2(*ctx, host_data, host_work_, start_ms, timing);
  group_->sync_all();
  if (verify) {
    verify_phase2_regions(*group_, members, layout, planes_, shards_,
                          host_data, e_in);
  }
  timing.makespan_ms = group_->elapsed_ms() - start_ms;
  last_layout_ = layout;
  last_timing_ = timing;
  last_total_ms_ = timing.makespan_ms;
  return timing;
}

ShardedFft3DPlan::ShardedFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                                   std::size_t shards, Direction dir,
                                   TuneConfig tune)
    : ShardedExecutor(
          group,
          PlanDesc::sharded3d(n, checked_decimation(n, shards, tune), dir),
          tune) {
  // dense3d routes a non-pow2 slab to the mixed-radix plan.
  acquire_slab_plans(PlanDesc::dense3d(slab_shape_, dir, Precision::F32));
  // Peer-capable fabrics get the planner's slab-vs-pencil call (keyed on
  // bisection bandwidth via topology_model_ms); the tree has no choice
  // to make, so its construction cost is unchanged. Non-pow2 extents
  // always take the slab decomposition: its phase-2 unit is a whole slab
  // that the mixed-radix plan can transform, while the pencil phase-2
  // kernels keep their pow2-only X machinery.
  if (group.size() > 1 && group.topo().peer_capable() && is_pow2(n_)) {
    decomp_ = choose_decomposition(group.topo(), group.device(0).spec(), n_,
                                   shards_, group.size(), dir);
  }
}

namespace {

/// Share of (active devices x makespan) that `part` of each active
/// device's buckets fills.
double occupancy(const ShardedBatchTiming& bt,
                 double (ShardTiming::*part)() const) {
  std::size_t active = 0;
  double ms = 0.0;
  for (const auto& d : bt.total.devices) {
    if (d.busy_ms() > 0.0) {
      ++active;
      ms += (d.*part)();
    }
  }
  return active > 0 && bt.makespan_ms > 0.0
             ? ms / (static_cast<double>(active) * bt.makespan_ms)
             : 0.0;
}

/// Replay the pipelined batch schedule's queueing discipline on one
/// representative card with closed-form phase times — no simulated
/// device, just the same start-at-max(stream tail, engine free) rule the
/// engine scheduler applies, in the same issue order. `lookahead` is the
/// software-pipeline depth: 0 issues whole volumes back to back (two
/// WAR-fenced contexts still overlap across the volume boundary), 1
/// issues volume k+1's phase 1 before volume k's phase 2. Every member
/// runs the same per-volume work, so one card's timeline is the group's.
/// Frozen: the executor runs the lookahead these replays pick, and 44 of
/// tier-1's 47 picks between two or more candidates are decided within
/// 1e-13 relative, so re-associating this arithmetic moves pinned
/// timelines.
double replay_pipelined_ms(const ShardPhases& p, bool one_dma,
                           std::size_t residues, std::size_t groups,
                           std::size_t batch, std::size_t lookahead) {
  double up_free = 0.0, dn_free = 0.0, comp_free = 0.0;
  // kPipelineContexts contexts of two streams each, reused WAR-fenced
  // as the scheduler does: tails[ctx][stream].
  double tails[kPipelineContexts][2] = {};
  double makespan = 0.0;
  std::size_t p1 = 0, p2 = 0;
  while (p2 < batch) {
    if (p1 < batch && p1 <= p2 + lookahead) {
      double* t = tails[p1 % kPipelineContexts];
      // Reuse fence: both streams wait for the context's previous
      // volume.
      t[0] = t[1] = std::max(t[0], t[1]);
      for (std::size_t j = 0; j < residues; ++j) {
        double& s = t[j % 2];
        s = std::max(s, up_free) + p.up1_ms;
        up_free = s;
        if (one_dma) dn_free = s;
        s = std::max(s, comp_free) + p.fft1_ms + p.twiddle_ms;
        comp_free = s;
        s = std::max(s, dn_free) + p.dn1_ms;
        dn_free = s;
        if (one_dma) up_free = s;
      }
      ++p1;
    } else {
      double* t = tails[p2 % kPipelineContexts];
      const double barrier = std::max(t[0], t[1]);
      t[0] = t[1] = barrier;
      for (std::size_t g = 0; g < groups; ++g) {
        double& s = t[g % 2];
        s = std::max(s, up_free) + p.up2_ms;
        up_free = s;
        if (one_dma) dn_free = s;
        s = std::max(s, comp_free) + p.fft2_ms;
        comp_free = s;
        s = std::max(s, dn_free) + p.dn2_ms;
        dn_free = s;
        if (one_dma) up_free = s;
      }
      makespan = std::max({makespan, t[0], t[1]});
      ++p2;
    }
  }
  return makespan;
}

/// The issue order the pipelined batch runs: the argmin, with its
/// replayed makespan, over every candidate phase-1 lookahead (lookahead L
/// keeps at most L+1 contexts live, so L < kPipelineContexts). Frozen,
/// tie rule included: service_mix keeps lookahead 0 where 1 ties exactly
/// or loses by one ulp, while ZDecimTimeline.PipelinedBatchMesh4 takes 2
/// because it wins by one ulp, so no tie rule keeps both pinned picks.
std::pair<std::size_t, double> best_lookahead(const ShardPhases& p,
                                              bool one_dma,
                                              std::size_t residues,
                                              std::size_t groups,
                                              std::size_t batch) {
  std::pair<std::size_t, double> best{
      0, replay_pipelined_ms(p, one_dma, residues, groups, batch, 0)};
  for (std::size_t la = 1; la < kPipelineContexts && la < batch; ++la) {
    const double m = replay_pipelined_ms(p, one_dma, residues, groups, batch,
                                         la);
    if (m < best.second) best = {la, m};
  }
  return best;
}

}  // namespace

double ShardedBatchTiming::exchange_occupancy() const {
  return occupancy(*this, &ShardTiming::exchange_ms);
}

double ShardedBatchTiming::compute_occupancy() const {
  return occupancy(*this, &ShardTiming::compute_ms);
}

ShardedBatchTiming ShardedFft3DPlan::execute_batch(
    std::span<const std::span<cxf>> volumes, BatchMode mode) {
  REPRO_CHECK(!volumes.empty());
  for (const auto& v : volumes) check_host_volume(v);
  // Verified batches drain serially: the pipelined interleave keeps
  // several volumes in flight, so a failed check could not recompute one
  // volume without replaying the whole window, while the serial path
  // gives each volume its own snapshot/recompute loop through execute().
  // VerifyPolicy::Off keeps the pipelined schedule untouched.
  if (this->exec_policy().verify != VerifyPolicy::Off) {
    mode = BatchMode::Serial;
  }
  return with_plan_context(desc_, [&] {
    ShardedBatchTiming bt;
    bt.total.devices.resize(group_->size());
    const double t0 = group_->elapsed_ms();
    const auto finish_batch = [&] {
      bt.makespan_ms = group_->elapsed_ms() - t0;
      bt.total.makespan_ms = bt.makespan_ms;
      last_timing_ = bt.total;
      last_total_ms_ = bt.makespan_ms;
      return bt;
    };

    if (mode == BatchMode::Serial) {
      // PR 3 behavior: full group drain between volumes (each volume
      // carries its own failover via execute()).
      for (const auto& v : volumes) {
        accumulate(bt.total, execute(v));
        bt.volume_done_ms.push_back(group_->elapsed_ms() - t0);
      }
      return finish_batch();
    }

    // ---- Pipelined: software-pipelined issue order over a rotation of
    // kPipelineContexts contexts; volume k stages through staging slot
    // k % kPipelineContexts. The engine FIFOs dispatch in submission
    // order, so the issue order IS the schedule: issuing volume k+1's
    // phase 1 before volume k's phase 2 lets the copy engines run k+1's
    // uploads while k's exchange waits on its group-wide barrier, but it
    // also queues k's exchange upload behind k+1's phase-1 transfers.
    // How far ahead to run depends on the phase balance (exchange-heavy
    // sizes want deep lookahead, phase-1-heavy sizes want none), so the
    // depth comes from replaying every candidate order through the
    // closed-form model below and taking the argmin. Functional effects
    // apply at enqueue in program order
    // and the interleaved stages touch disjoint buffers, so either
    // order is bit-identical to the Serial schedule.
    const auto resolve = [&](std::vector<std::size_t> alive) {
      return resolve_shard(group_->topo(), group_, std::move(alive), n_,
                           shards_, decomp_);
    };
    ResolvedShard shard = resolve(group_->schedulable_members());
    REPRO_CHECK_MSG(!shard.members.empty(),
                    "every device in the group has been lost");
    // Peer exchanges stage on the cards (the per-ctx receive buffers), so
    // the extra host staging volumes are only grown for host-staged runs
    // — including a mid-batch failover that falls back to host staging.
    const auto ensure_staging = [&] {
      if (shard.layout.exchange == Exchange::HostStaged &&
          host_work_extra_[0].empty()) {
        for (std::size_t i = 0; i + 1 < kPipelineContexts; ++i) {
          host_work_extra_[i].resize(n_ * n_ * n_);
          staging_lease_extra_[i] = sim::DeviceGroup::HostStagingLease(
              *group_, n_ * n_ * n_ * sizeof(cxf));
        }
      }
    };
    ensure_staging();
    const bool armed = group_->any_faults_armed();
    std::vector<cxf> snapshot;
    std::array<std::unique_ptr<VolumeCtx>, kPipelineContexts> ctx;
    std::array<ShardedTiming, kPipelineContexts> vt;
    std::array<double, kPipelineContexts> vstart;
    vstart.fill(t0);
    const auto work = [&](std::size_t k) {
      const std::size_t slot = k % kPipelineContexts;
      return slot == 0 ? std::span<cxf>(host_work_)
                       : std::span<cxf>(host_work_extra_[slot - 1]);
    };
    if (!probe_phases_) {
      probe_phases_ = probe_shard_phases(
          group_->device(shard.members[0]).spec(), n_, shards_, desc_.dir);
    }
    // The replay's phase extents follow the resolved layout: phase-1
    // residues per owner, and the plane groups of one member's unit.
    const std::size_t lookahead =
        best_lookahead(
            *probe_phases_,
            group_->device(shard.members[0]).spec().dma_engines == 1,
            shards_ / shard.layout.phase1_members,
            phase2_unit(shard.layout, n_ / shards_, 0).groups,
            volumes.size())
            .first;
    std::size_t p1 = 0;  // next volume to enter phase 1
    std::size_t p2 = 0;  // next volume to enter phase 2
    while (p2 < volumes.size()) {
      // Phase 1 runs at most `lookahead` volumes ahead; each staging
      // slot must survive until phase 2 of its volume has been issued.
      const bool do_p1 = p1 < volumes.size() && p1 <= p2 + lookahead;
      try {
        if (!ctx[0]) {
          for (auto& c : ctx) c = make_ctx(shard.members, shard.layout);
        }
        if (do_p1) {
          const std::size_t slot = p1 % kPipelineContexts;
          VolumeCtx& c = *ctx[slot];
          // WAR fence: volume p1 - kPipelineContexts read this
          // context's staging volume and slabs during its phase 2;
          // those ops must retire before phase 1 overwrites them. Fresh
          // contexts have zero tails, so the fence is a no-op on the
          // first rotation.
          c.fence(c.max_tail_ms());
          vstart[slot] = std::max(t0, c.max_tail_ms());
          vt[slot] = ShardedTiming{};
          vt[slot].devices.resize(group_->size());
          enqueue_phase1(c, volumes[p1], work(p1), vt[slot]);
          ++p1;
        } else {
          const std::size_t slot = p2 % kPipelineContexts;
          VolumeCtx& c = *ctx[slot];
          // Phase 2 is the only stage that overwrites the caller's
          // volume, so it is the only stage that can tear one mid-run.
          if (armed) {
            snapshot.assign(volumes[p2].begin(), volumes[p2].end());
          }
          enqueue_phase2(c, volumes[p2], work(p2), vstart[slot],
                         vt[slot]);
          accumulate(bt.total, vt[slot]);
          bt.volume_done_ms.push_back(c.max_tail_ms() - t0);
          ++p2;
        }
      } catch (const sim::DeviceLostError& e) {
        ResolvedShard next = resolve(group_->schedulable_members());
        if (next.members.empty() || (!do_p1 && snapshot.empty())) throw;
        ++group_->device(e.device()).health().device_lost_failovers;
        // The lost card's streams are dead; drop every context (RAII
        // folds the surviving timelines) and rebuild on the survivors.
        for (auto& c : ctx) c.reset();
        const bool staged =
            shard.layout.exchange == Exchange::HostStaged;
        shard = std::move(next);
        ensure_staging();
        if (!do_p1) {
          // Phase 2 may have torn volume p2 mid-overwrite; restore it.
          std::copy(snapshot.begin(), snapshot.end(),
                    volumes[p2].begin());
        }
        if (staged) {
          // Host-staged: volume p2's staged planes in host_work are host
          // memory fully written when its phase 1 was enqueued, so only
          // phase 2 re-runs; a failed phase 1 only read its volume.
        } else {
          // Peer: phase-1 results lived in the dropped receive buffers,
          // so every volume that has not finished phase 2 re-runs phase
          // 1 too. Those volumes' host data is intact — phase 1 only
          // reads it, and p2's overwrite was just restored.
          p1 = p2;
        }
      }
    }
    for (auto& c : ctx) c.reset();
    group_->sync_all();
    return finish_batch();
  });
}

std::vector<StepTiming> ShardedFft3DPlan::execute_batch_host(
    std::span<const std::span<cxf>> volumes) {
  // The rows are duration sums across the batch; execute_batch leaves
  // last_total_ms() at the overlapped (pipelined) batch makespan.
  const ShardedBatchTiming bt = execute_batch(volumes);
  return table12_rows(bt.total.sum(), volumes.size() * buffer_elements());
}

ShardedRealFft3DPlan::ShardedRealFft3DPlan(sim::DeviceGroup& group,
                                           std::size_t n, std::size_t shards,
                                           Direction dir, TuneConfig tune)
    : ShardedExecutor(group,
                      PlanDesc::sharded_real3d(
                          n, checked_decimation(n, shards, tune), dir),
                      tune) {
  REPRO_CHECK_MSG(is_pow2(n),
                  "sharded real plans still need power-of-two extents (the "
                  "packed half-length X pass runs the radix-4/2 fine "
                  "kernel); got n=" + fft::describe_size(n) +
                      " — transform a complex copy through the sharded "
                      "complex plan, which accepts any n");
  REPRO_CHECK_MSG(n >= 32,
                  "sharded real plans need n >= 32 (the half-length X fine "
                  "stages need n/2 >= 16)");
  if (dir == Direction::Forward) {
    // Phase 1 runs the whole real slab plan (r2c X + coarse Y/local-Z).
    acquire_slab_plans(PlanDesc::real3d(slab_shape_, dir));
    return;
  }
  // Phase 2 finishes with the fused c2r pass; share its tables now (none
  // for a member that is already gone — the schedule only touches alive
  // members).
  for (std::size_t d = 0; d < group.size(); ++d) {
    auto& dev = group.device(d);
    tw_half_.push_back(dev.lost() ? nullptr
                                  : ResourceCache::of(dev).twiddles<float>(
                                        n / 2, dir));
    tw_full_.push_back(
        dev.lost() ? nullptr : ResourceCache::of(dev).twiddles<float>(n, dir));
  }
}

void ShardedRealFft3DPlan::phase1_transform(std::size_t d,
                                            DeviceBuffer<cxf>& slab,
                                            sim::Stream& s, double& ms) {
  if (desc_.dir == Direction::Forward) {
    ShardedExecutor::phase1_transform(d, slab, s, ms);
    return;
  }
  // The c2r pass needs the full Z axis, which phase 2 reassembles: the
  // inverse's phase 1 runs the coarse Y/local-Z ranks only.
  Device& dev = group_->device(d);
  const Device::StreamGuard guard(dev, s);
  ms += run_real_coarse_slab<float>(dev, slab, slab_shape_, desc_.dir,
                                    desc_.tune);
}

void ShardedRealFft3DPlan::phase2_epilogue(std::size_t e,
                                           DeviceBuffer<cxf>& group,
                                           sim::Stream& s, double& ms) {
  if (desc_.dir == Direction::Forward) return;
  // Z is whole again: finish with the fused c2r pass, folding the full
  // 1/(n/2 * n * n) normalization (true inverse).
  Device& dev = group_->device(e);
  auto fp = RealFineParams::tuned(desc_.tune, dev.spec(), n_,
                                  n_ * shards_, desc_.dir);
  fp.scale = 1.0 / (static_cast<double>(n_ / 2) * static_cast<double>(n_) *
                    static_cast<double>(n_));
  RealFineKernel c2r(group, fp, tw_half_[e].get(), tw_full_[e].get());
  ms += dev.launch_async(c2r, s).total_ms;
}

ShardLayout shard_layout(const sim::Topology& topo, std::size_t n,
                         std::size_t shards, std::size_t devices,
                         Decomposition preferred) {
  REPRO_CHECK(devices >= 1);
  REPRO_CHECK_MSG(devices <= topo.size(),
                  "devices exceeds the topology's span");
  std::vector<std::size_t> all(devices);
  for (std::size_t i = 0; i < devices; ++i) all[i] = i;
  return resolve_shard(topo, nullptr, std::move(all), n, shards, preferred)
      .layout;
}

ShardPhases probe_shard_phases(const sim::GpuSpec& spec, std::size_t n,
                               std::size_t shards, Direction dir) {
  Device dev(spec);
  const std::size_t plane = n * n;
  const std::size_t local_nz = n / shards;
  const Shape3 slab_shape{n, n, local_nz};
  const unsigned grid = default_grid_blocks(spec);
  const std::size_t slab_elems = plane * std::max(local_nz, shards);

  auto slab = dev.alloc<cxf>(slab_elems);
  std::vector<cxf> host(slab_elems);
  // Build the slab plan (twiddle uploads etc.) before the stopwatch.
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::dense3d(slab_shape, dir, Precision::F32));

  // Timing is data-value independent, so each phase is measured once,
  // serially, with reset_clock deltas (the measure_offload pattern).
  ShardPhases p;
  dev.reset_clock();
  for (std::size_t j = 0; j < local_nz; ++j) {
    dev.h2d(slab, std::span<const cxf>(host).subspan(j * plane, plane),
            j * plane);
  }
  p.up1_ms = dev.elapsed_ms();

  dev.reset_clock();
  plan->execute(slab);
  p.fft1_ms = dev.elapsed_ms();

  dev.reset_clock();
  SlabTwiddleKernel tw(slab, slab_shape, n, 0, dir, grid);
  dev.launch(tw);
  p.twiddle_ms = dev.elapsed_ms();

  dev.reset_clock();
  for (std::size_t k = 0; k < local_nz; ++k) {
    dev.d2h(std::span<cxf>(host).subspan(k * plane, plane), slab,
            k * plane);
  }
  p.dn1_ms = dev.elapsed_ms();

  dev.reset_clock();
  dev.h2d(slab, std::span<const cxf>(host).subspan(0, shards * plane));
  p.up2_ms = dev.elapsed_ms();

  dev.reset_clock();
  ZPencilFftKernel fft(slab, Shape3{n, n, shards}, dir, grid);
  dev.launch(fft);
  p.fft2_ms = dev.elapsed_ms();

  dev.reset_clock();
  for (std::size_t k2 = 0; k2 < shards; ++k2) {
    dev.d2h(std::span<cxf>(host).subspan(k2 * plane, plane), slab,
            k2 * plane);
  }
  p.dn2_ms = dev.elapsed_ms();
  return p;
}

double sharded_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                        std::size_t n, std::size_t shards,
                        std::size_t devices) {
  const double residues = static_cast<double>(shards / devices);
  const double groups = static_cast<double>((n / shards) / devices);
  const double chain1 = p.up1_ms + p.fft1_ms + p.twiddle_ms + p.dn1_ms;
  const double chain2 = p.up2_ms + p.fft2_ms + p.dn2_ms;
  if (spec.dma_engines == 1) {
    // The single copy engine's FIFO queues residue r+1's upload behind
    // residue r's download, which stream order places after residue r's
    // compute — every chain runs start-to-finish with no overlap.
    return residues * chain1 + groups * chain2;
  }
  // Two copy engines: the double-buffered steady state is limited by the
  // slowest engine, or by chain/2 when only two slabs bound the depth.
  const double rate1 = std::max(
      {p.up1_ms, p.fft1_ms + p.twiddle_ms, p.dn1_ms, chain1 / 2.0});
  const double rate2 =
      std::max({p.up2_ms, p.fft2_ms, p.dn2_ms, chain2 / 2.0});
  return chain1 + (residues - 1.0) * rate1 + chain2 +
         (groups - 1.0) * rate2;
}

double sharded_batch_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                              std::size_t n, std::size_t shards,
                              std::size_t devices, std::size_t batch) {
  if (batch <= 1) {
    return static_cast<double>(batch) *
           sharded_model_ms(p, spec, n, shards, devices);
  }
  // Every candidate issue order (phase-1 lookahead 0..contexts-1)
  // replayed through the scheduler's queueing discipline; the scheduler
  // picks its order from the same replays, so the minimum is what
  // actually runs. The replay captures
  // what a busiest-engine rate cannot: on a 1-DMA card the single copy
  // engine's FIFO serializes every transfer so pipelining recovers only
  // compute shadow, while on a 2-DMA card the lookahead order fills the
  // barrier gap the exchange leaves on the upload engine.
  return best_lookahead(p, spec.dma_engines == 1, shards / devices,
                        (n / shards) / devices, batch)
      .second;
}

namespace {

/// `p` with its phase-2 kernel and downloads re-probed for a pencil unit
/// (the slab probe covers everything else): the (n, n/py, shards) pencil
/// kernel and the unit's `shards` ny*n-row downloads.
ShardPhases probe_pencil_phases(ShardPhases p, const sim::GpuSpec& spec,
                                std::size_t n, std::size_t py,
                                std::size_t shards, Direction dir) {
  Device dev(spec);
  const std::size_t ny = n / py;
  auto buf = dev.alloc<cxf>(shards * ny * n);
  std::vector<cxf> host(ny * n);
  dev.reset_clock();
  ZPencilFftKernel fft(buf, Shape3{n, ny, shards}, dir,
                       default_grid_blocks(spec));
  dev.launch(fft);
  p.fft2_ms = dev.elapsed_ms();
  dev.reset_clock();
  dev.d2h(std::span<cxf>(host), buf, 0);
  p.dn2_ms = static_cast<double>(shards) * dev.elapsed_ms();
  return p;
}

}  // namespace

double topology_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                         const sim::Topology& topo, std::size_t n,
                         std::size_t shards, std::size_t devices,
                         Decomposition decomp, Direction dir) {
  const ShardLayout lay = shard_layout(topo, n, shards, devices, decomp);
  const bool peer = lay.exchange == Exchange::Peer;
  const std::size_t local_nz = n / shards;
  const std::size_t nm = lay.members;
  const std::size_t nm1 = lay.phase1_members;
  const ShardPhases q =
      lay.decomp == Decomposition::Pencil
          ? probe_pencil_phases(p, spec, n, lay.y_blocks, shards, dir)
          : p;

  // Replay the executor's enqueue order through the real scheduler on
  // throwaway devices, one per topology slot (torus forwarders included):
  // member mi (ordinal mi: members are a prefix) owns streams 2mi and
  // 2mi+1, every slot one exchange stream after them, and peer legs time
  // through sim::time_transfer over a private link clock.
  std::vector<std::unique_ptr<Device>> devs;
  for (std::size_t d = 0; d < topo.size(); ++d) {
    devs.push_back(std::make_unique<Device>(spec));
  }
  std::deque<sim::Stream> streams;
  for (std::size_t i = 0; i < 2 * nm; ++i) streams.emplace_back(*devs[i / 2]);
  std::vector<sim::Stream*> exch;
  for (const auto& dev : devs) exch.push_back(&streams.emplace_back(*dev));
  sim::LinkClock links;

  // ---- Phase 1: uploads, lumped compute, staged downloads or ring sends
  for (std::size_t residue = 0; residue < shards; ++residue) {
    const std::size_t mi = residue % nm1;
    Device& dev = *devs[mi];
    sim::Stream& s = streams[2 * mi + (residue / nm1) % 2];
    dev.submit_timed(s, sim::Engine::DmaH2D, q.up1_ms, "h2d1");
    dev.submit_timed(s, sim::Engine::Compute, q.fft1_ms + q.twiddle_ms,
                     "fft1");
    if (!peer) {
      dev.submit_timed(s, sim::Engine::DmaD2H, q.dn1_ms, "d2h1");
      continue;
    }
    for (std::size_t ring = 0; ring < nm; ++ring) {
      const std::size_t emi = (mi + ring) % nm;
      for (std::size_t gl = 0; gl < phase2_unit(lay, local_nz, emi).groups;
           ++gl) {
        sim::time_transfer(topo, links, devs, mi, emi,
                           n / lay.y_blocks * n * sizeof(cxf), s, exch);
      }
    }
  }

  // ---- Fence: host-staged on the latest tail, peer per member ----
  double latest = 0.0;
  for (const auto& st : streams) latest = std::max(latest, st.ready_ms());
  for (std::size_t mi = 0; mi < nm; ++mi) {
    sim::Stream& s0 = streams[2 * mi];
    sim::Stream& s1 = streams[2 * mi + 1];
    const double fence =
        peer ? std::max({s0.ready_ms(), s1.ready_ms(), exch[mi]->ready_ms()})
             : latest;
    s0.wait_until_ms(fence);
    s1.wait_until_ms(fence);
  }

  // ---- Phase 2: each member's unit, staged uploads on host layouts ----
  for (std::size_t mi = 0; mi < nm; ++mi) {
    Device& dev = *devs[mi];
    for (std::size_t gl = 0; gl < phase2_unit(lay, local_nz, mi).groups;
         ++gl) {
      sim::Stream& s = streams[2 * mi + gl % 2];
      if (!peer) dev.submit_timed(s, sim::Engine::DmaH2D, q.up2_ms, "h2d2");
      dev.submit_timed(s, sim::Engine::Compute, q.fft2_ms, "fft2");
      dev.submit_timed(s, sim::Engine::DmaD2H, q.dn2_ms, "d2h2");
    }
  }
  double makespan = 0.0;
  for (const auto& dev : devs) makespan = std::max(makespan, dev->elapsed_ms());
  if (!peer) return makespan;
  // Aggregate floor: the all-to-all moves the whole volume once, and half
  // of it must cross the worst even cut, whatever the schedule.
  const double volume_bytes = static_cast<double>(n * n * n * sizeof(cxf));
  return std::max(makespan,
                  volume_bytes / 2.0 / (topo.bisection_gbs() * 1e6));
}

}  // namespace repro::gpufft
