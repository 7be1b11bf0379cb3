// Hypervisor mode of the CampaignRunner (Section IV's PikeOS setting): the
// measured target (CampaignConfig::measured) measured while guest
// partitions share the platform.
//
// The per-run protocol is the runner's one protocol (campaign_runner.cpp):
// setup, execute and collect branch on the hypervisor only for
//   * the layout seed — the measured partition's reboot draws from
//     exec::derive_partition_seed at its kind's fixed index, and each
//     guest reseeds its input stream the same way (hv_begin_run);
//   * the measured step — after the shared wipe and same-layout warm-up,
//     the cyclic schedule is replayed from a fresh timeline: guests
//     activate every minor frame, the measured partition once in the LAST
//     frame, with the hypervisor's partition-start L1 flushes
//     (hv_run_schedule);
//   * the partition activity and the guests' golden-model checks
//     (hv_check_partitions).
// This file holds those steps, the one table of partition kinds, the one
// guest partition class every interference guest is, and the
// Hypervisor the runner drives directly.
//
// Seed-index freeze: exec::derive_partition_seed indices are fixed PER
// TASK KIND (kPartitionKinds below) — never per registration order or
// measured role.  This is test-locked: it keeps every scenario's random
// streams (and therefore its times digests) bit-identical across
// refactors, and promoting a guest to the measured slot (or vice versa)
// never shifts another partition's stream.
#include "casestudy/campaign_runner.hpp"

#include "exec/seed.hpp"
#include "obs/timeline.hpp"
#include "rng/mwc.hpp"
#include "rtos/hypervisor.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace proxima::casestudy {

namespace {

enum PartitionKind : std::uint8_t { kControl, kImage, kStressor, kBeacon };

/// What the schedule knows about a task kind, whichever role it plays.
/// The guest columns place the kind's image when it runs as an
/// interference guest; the beacon is only ever measured.
struct PartitionKindRow {
  const char* name;         // hypervisor partition name
  std::uint32_t seed_index; // exec::derive_partition_seed index (frozen)
  std::uint32_t code_base;  // guest image bases: above the DSR code pool
  std::uint32_t data_base;  // (0x4100'0000 + 32 MiB)
  std::uint32_t stack_top;  // guest stack top
  bool HvCampaignConfig::*guest;                    // enables the guest
  std::uint32_t HvCampaignConfig::*guest_budget_ms; // its budget fence
};

constexpr PartitionKindRow kPartitionKinds[] = {
    {"control", 0, 0x4600'0000, 0x4610'0000, 0x4680'0000,
     &HvCampaignConfig::control_guest,
     &HvCampaignConfig::control_guest_budget_ms},
    {"processing", 1, 0x4300'0000, 0x4310'0000, 0x4480'0000,
     &HvCampaignConfig::image_guest, &HvCampaignConfig::image_budget_ms},
    {"stressor", 2, 0x4500'0000, 0x4510'0000, 0x4580'0000,
     &HvCampaignConfig::stressor_guest, &HvCampaignConfig::stressor_budget_ms},
    {"beacon", 3, 0, 0, 0, nullptr, nullptr},
};

constexpr std::size_t kKinds = std::size(kPartitionKinds);

PartitionKind partition_kind(MeasuredTargetKind kind) {
  switch (kind) {
  case MeasuredTargetKind::kImage:
    return kImage;
  case MeasuredTargetKind::kLeakyBeacon:
  case MeasuredTargetKind::kHardenedBeacon:
    return kBeacon;
  case MeasuredTargetKind::kControl:
    break;
  }
  return kControl;
}

} // namespace

const char* measured_partition_name(MeasuredTargetKind kind) noexcept {
  return kPartitionKinds[partition_kind(kind)].name;
}

struct CampaignRunner::HvState {
  /// The measured partition: a thin app over the runner's measured image.
  /// Its inputs are staged by setup() like the bare protocol's, so an
  /// activation needs only the entry point, which follows the bare rule
  /// (CampaignRunner::measured_entry) and is queried at activation time,
  /// after the on-demand switch hook has reseeded.
  class MeasuredApp final : public rtos::PartitionApp {
  public:
    explicit MeasuredApp(CampaignRunner& runner) : runner_(runner) {}
    std::uint32_t entry_address() override { return runner_.measured_entry(); }
    std::uint32_t stack_top() override { return runner_.target_->stack_top(); }

  private:
    CampaignRunner& runner_;
  };

  /// An interference guest: one task kind's program linked at its row's
  /// guest bases, with fresh inputs every activation drawn from the run's
  /// partition stream.  The kinds differ only in their program, staging
  /// and golden check (the three switches below).
  class GuestPartition final : public rtos::PartitionApp {
  public:
    GuestPartition(CampaignRunner& runner, PartitionKind kind)
        : runner_(runner), kind_(kind), rng_(1),
          image_(isa::link(program(), link_options())) {
      image_.load_into(runner_.memory_);
      runner_.cpu_.predecode(image_.code_begin(),
                             image_.code_end() - image_.code_begin());
    }

    std::uint32_t entry_address() override { return image_.entry_addr(); }
    std::uint32_t stack_top() override {
      return kPartitionKinds[kind_].stack_top;
    }

    /// Per-run reboot: the guest's stream restarts from this run's
    /// partition seed, so the guest is a pure function of the run index.
    void begin_run(std::uint64_t activation) {
      rng_.seed(exec::derive_partition_seed(
          runner_.config_.input_seed, exec::SeedStream::kInput, activation,
          kPartitionKinds[kind_].seed_index));
      staged_ = false;
    }

    void before_activation(std::uint64_t) override {
      for (const auto& [addr, length] : stage()) {
        runner_.note_staged_range(addr, length);
      }
      staged_ = true;
    }

    /// Golden-model check of the most recent activation (its outputs are
    /// still resident when the run's schedule completes).
    void verify_last() const {
      if (staged_ && !outputs_match()) {
        runner_.fault(std::string("guest partition '") +
                      kPartitionKinds[kind_].name +
                      "' outputs diverge from the golden model");
      }
    }

  private:
    const HvCampaignConfig& hv() const { return *runner_.config_.hypervisor; }

    isa::LinkOptions link_options() const {
      isa::LinkOptions options;
      options.code_base = kPartitionKinds[kind_].code_base;
      options.data_base = kPartitionKinds[kind_].data_base;
      return options;
    }

    isa::Program program() const {
      switch (kind_) {
      case kImage:
        return build_image_program(hv().image);
      case kStressor:
        return build_stressor_program(hv().stressor);
      default: // kControl
        return build_control_program(runner_.config_.control);
      }
    }

    std::vector<std::pair<std::uint32_t, std::uint32_t>> stage() {
      mem::GuestMemory& memory = runner_.memory_;
      switch (kind_) {
      case kImage:
        frame_ = make_image_inputs(rng_, hv().image);
        return stage_image_inputs(memory, image_, frame_);
      case kStressor:
        salt_ = rng_.next_u32();
        return stage_stressor_inputs(memory, image_, salt_);
      default: // kControl, below
        break;
      }
      // The control task's persistent instrument state restarts from the
      // image's load-time contents each run; guest memory still holds the
      // previous run's state, so the run's first activation re-stages it
      // in full.
      const ControlParams& params = runner_.config_.control;
      if (!staged_) {
        control_ = initial_control_inputs(params);
      }
      refresh_control_inputs(rng_, params, control_);
      if (staged_) {
        return stage_control_inputs(memory, image_, control_);
      }
      ControlInputs full = control_;
      mark_control_inputs_fully_dirty(full);
      return stage_control_inputs(memory, image_, full);
    }

    bool outputs_match() const {
      const mem::GuestMemory& memory = runner_.memory_;
      switch (kind_) {
      case kImage:
        return reference_image(hv().image, frame_) ==
               read_image_outputs(memory, image_, hv().image);
      case kStressor:
        return reference_stressor(hv().stressor, salt_) ==
               read_stressor_outputs(memory, image_);
      default: // kControl
        return reference_control(runner_.config_.control, control_) ==
               read_control_outputs(memory, image_, runner_.config_.control);
      }
    }

    CampaignRunner& runner_;
    PartitionKind kind_;
    rng::Mwc rng_;
    isa::LinkedImage image_;
    ControlInputs control_;  // kControl: the persistent instrument state
    ImageInputs frame_;      // kImage: the last activation's frame
    std::uint32_t salt_ = 0; // kStressor: the last activation's salt
    bool staged_ = false;
  };

  /// A registered partition: its name and nominal budget fence (ms, 0 =
  /// the whole minor frame), in registration order — the order
  /// RunSample::partitions and every per-partition report use.
  struct Registered {
    std::string name;
    std::uint32_t budget_ms;
  };

  HvState(CampaignRunner& runner, const HvCampaignConfig& hv)
      : measured(runner),
        measured_kind(partition_kind(runner.config_.measured)),
        hypervisor(runner.cpu_, runner.hierarchy_,
                   rtos::HypervisorConfig{hv.minor_frame_ms,
                                          hv.cycles_per_ms}) {
    // The measured partition activates once per run, in the LAST minor
    // frame, so every guest activation of the run precedes the measured
    // one; high criticality still puts it first within that frame.
    const std::uint64_t period = std::uint64_t{hv.frames} * hv.minor_frame_ms;
    if (period > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "hypervisor campaign: frames * minor_frame_ms exceeds the 32-bit "
          "period range");
    }
    const auto period_ms = static_cast<std::uint32_t>(period);
    add(rtos::PartitionConfig{.name = kPartitionKinds[measured_kind].name,
                              .period_ms = period_ms,
                              .offset_ms = period_ms - hv.minor_frame_ms,
                              .budget_ms = hv.measured_budget_ms,
                              .criticality = rtos::Criticality::kHigh},
        measured);
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      const PartitionKindRow& row = kPartitionKinds[kind];
      if (row.guest != nullptr && hv.*row.guest) {
        add(rtos::PartitionConfig{.name = row.name,
                                  .period_ms = hv.minor_frame_ms,
                                  .budget_ms = hv.*row.guest_budget_ms},
            guests[kind].emplace(runner, static_cast<PartitionKind>(kind)));
      }
    }
  }

  void add(const rtos::PartitionConfig& config, rtos::PartitionApp& app) {
    hypervisor.add_partition(config, app); // validates; throws on bad config
    partitions.push_back(Registered{config.name, config.budget_ms});
  }

  MeasuredApp measured;
  PartitionKind measured_kind;
  std::optional<GuestPartition> guests[kKinds]; // by kind; beacon never set
  rtos::Hypervisor hypervisor;
  std::vector<Registered> partitions;
  std::vector<rtos::ActivationRecord> records; // last executed schedule
};

void CampaignRunner::HvStateDelete::operator()(HvState* hv) const noexcept {
  delete hv;
}

void CampaignRunner::hv_build() {
  const HvCampaignConfig& hv = *config_.hypervisor;
  if (config_.randomisation == Randomisation::kStatic) {
    throw std::invalid_argument(
        "hypervisor campaigns do not support static re-link randomisation: "
        "a re-flash clears the guest partitions' images");
  }
  if (hv.frames == 0) {
    throw std::invalid_argument(
        "hypervisor campaigns need at least one minor frame per run");
  }
  // A task kind occupies one partition: the guest matching the measured
  // target would collide with it (same program, same partition name).
  const PartitionKindRow& measured = kPartitionKinds[partition_kind(
      config_.measured)];
  if (measured.guest != nullptr && hv.*measured.guest) {
    throw std::invalid_argument(
        std::string("hypervisor campaign: partition '") + measured.name +
        "' is the measured partition; it cannot also run as an "
        "interference guest");
  }
  hv_.reset(new HvState(*this, hv));
  if (config_.randomisation == Randomisation::kDsrOnDemand) {
    // Hypervisor on-demand trigger: every granted partition activation
    // (every partition switch the schedule performs) reseeds the measured
    // partition's layout.  The reseed is the hypervisor's own work — host
    // side, charged to no partition budget; the measured partition picks
    // the fresh layout up through entry_address()/its function table.
    hv_->hypervisor.set_activation_hook(
        [this] { (void)runtime_->rerandomise_on_demand(); });
  }
}

std::uint64_t CampaignRunner::hv_begin_run(std::uint64_t activation) {
  for (std::optional<HvState::GuestPartition>& guest : hv_->guests) {
    if (guest) {
      guest->begin_run(activation);
    }
  }
  return exec::derive_partition_seed(
      config_.layout_seed, exec::SeedStream::kLayout, activation,
      kPartitionKinds[hv_->measured_kind].seed_index);
}

void CampaignRunner::hv_run_schedule() {
  hv_->hypervisor.reset_schedule();
  hv_->records = hv_->hypervisor.run_frames(config_.hypervisor->frames);
}

void CampaignRunner::hv_check_partitions(RunSample& sample) {
  for (const HvState::Registered& partition : hv_->partitions) {
    sample.partitions.push_back(PartitionActivity{partition.name, {}, 0});
  }
  const char* measured_name = kPartitionKinds[hv_->measured_kind].name;
  bool measured_completed = false;
  for (const rtos::ActivationRecord& record : hv_->records) {
    const auto it =
        std::find_if(sample.partitions.begin(), sample.partitions.end(),
                     [&](const PartitionActivity& activity) {
                       return activity.partition == record.partition;
                     });
    it->cycles.push_back(static_cast<double>(record.cycles_used));
    if (record.overran) {
      ++it->overruns;
    }
    if (record.partition == measured_name) {
      measured_completed = record.halted && !record.overran;
    }
  }
  if (!measured_completed) {
    fault("measured activation hit the budget fence");
  }
  if (config_.verify_outputs) {
    for (const std::optional<HvState::GuestPartition>& guest : hv_->guests) {
      if (guest) {
        guest->verify_last();
      }
    }
  }
}

void CampaignRunner::hv_publish_obs() {
  const HvCampaignConfig& hv = *config_.hypervisor;
  const std::uint64_t frame_cycles =
      std::uint64_t{hv.minor_frame_ms} * hv.cycles_per_ms;
  // Timeline spans live on the SIMULATED clock: each measured run replays
  // `frames` minor frames from cycle 0, so consecutive runs are laid out
  // end to end at their schedule positions.
  const std::uint64_t run_base_ms =
      *current_run_ * std::uint64_t{hv.frames} * hv.minor_frame_ms;
  for (const rtos::ActivationRecord& record : hv_->records) {
    if (config_.collect_metrics) {
      const std::string prefix = "hv." + record.partition + ".";
      run_metrics_.add(prefix + "activations", 1);
      run_metrics_.add(prefix + "consumed_cycles", record.cycles_used);
      // Partition names are unique per task kind (hv_build rejects the
      // measured kind doubling as a guest).
      const std::uint32_t budget_ms =
          std::find_if(hv_->partitions.begin(), hv_->partitions.end(),
                       [&](const HvState::Registered& partition) {
                         return record.partition == partition.name;
                       })
              ->budget_ms;
      run_metrics_.add(prefix + "granted_cycles",
                       std::uint64_t{budget_ms != 0 ? budget_ms
                                                    : hv.minor_frame_ms} *
                           hv.cycles_per_ms);
      if (record.overran) {
        run_metrics_.add(prefix + "overruns", 1);
      }
      run_metrics_.record(prefix + "frame_occupancy_pct",
                          record.cycles_used * 100 / frame_cycles);
    }
    if (config_.timeline != nullptr) {
      const double cycles_to_us = 1000.0 / static_cast<double>(hv.cycles_per_ms);
      config_.timeline->record(
          "partitions", record.partition,
          "run " + std::to_string(*current_run_) + " frame " +
              std::to_string(record.frame_index),
          static_cast<double>(run_base_ms) * 1000.0 +
              static_cast<double>(record.start_cycle) * cycles_to_us,
          static_cast<double>(record.cycles_used) * cycles_to_us);
    }
  }
}

} // namespace proxima::casestudy
