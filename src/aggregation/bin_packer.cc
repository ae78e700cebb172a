#include "aggregation/bin_packer.h"

#include <algorithm>
#include <cmath>

namespace mirabel::aggregation {

using flexoffer::FlexOffer;

BinPacker::BinPacker(const BinPackerBounds& bounds) : bounds_(bounds) {}

std::vector<std::vector<FlexOffer>> BinPacker::Pack(
    const std::vector<FlexOffer>& offers) const {
  std::vector<std::vector<FlexOffer>> bins;
  int64_t count = 0;
  double energy = 0.0;
  int64_t time_flex = 0;
  for (const FlexOffer& fo : offers) {
    double fo_energy = std::fabs(fo.TotalMaxEnergy());
    int64_t fo_tf = fo.TimeFlexibility();
    bool fits = !bins.empty() && count < bounds_.max_offers &&
                energy + fo_energy <= bounds_.max_total_energy_kwh &&
                time_flex + fo_tf <= bounds_.max_total_time_flexibility;
    if (!fits) {
      bins.emplace_back();
      count = 0;
      energy = 0.0;
      time_flex = 0;
    }
    bins.back().push_back(fo);
    ++count;
    energy += fo_energy;
    time_flex += fo_tf;
  }
  // Best-effort lower bound: fold an undersized trailing bin into its
  // predecessor (upper bounds may be exceeded by at most one bin's slack;
  // we prioritise the lower bound as the paper leaves the trade-off open).
  if (bins.size() >= 2 &&
      static_cast<int64_t>(bins.back().size()) < bounds_.min_offers) {
    auto& prev = bins[bins.size() - 2];
    prev.insert(prev.end(), bins.back().begin(), bins.back().end());
    bins.pop_back();
  }
  return bins;
}

std::vector<SubGroupUpdate> BinPacker::Process(
    const std::vector<GroupUpdate>& updates) {
  std::vector<SubGroupUpdate> out;
  for (const GroupUpdate& gu : updates) {
    GroupState& state = groups_[gu.group];

    if (gu.kind == UpdateKind::kDeleted) {
      for (SubGroupId sid : state.sub_groups) {
        sub_group_members_.erase(sid);
        out.push_back({UpdateKind::kDeleted, sid, {}});
      }
      groups_.erase(gu.group);
      continue;
    }

    // Apply membership deltas.
    if (!gu.removed.empty()) {
      auto is_removed = [&gu](const FlexOffer& fo) {
        return std::find(gu.removed.begin(), gu.removed.end(), fo.id) !=
               gu.removed.end();
      };
      state.offers.erase(
          std::remove_if(state.offers.begin(), state.offers.end(), is_removed),
          state.offers.end());
    }
    for (const FlexOffer& fo : gu.added) state.offers.push_back(fo);
    std::sort(
        state.offers.begin(), state.offers.end(),
        [](const FlexOffer& a, const FlexOffer& b) { return a.id < b.id; });

    // Repack and diff against the previously allocated sub-groups.
    std::vector<std::vector<FlexOffer>> bins = Pack(state.offers);
    size_t reused = std::min(bins.size(), state.sub_groups.size());
    for (size_t i = 0; i < reused; ++i) {
      SubGroupId sid = state.sub_groups[i];
      sub_group_members_[sid] = bins[i].size();
      out.push_back({UpdateKind::kChanged, sid, std::move(bins[i])});
    }
    for (size_t i = reused; i < bins.size(); ++i) {
      SubGroupId sid = next_sub_group_id_++;
      state.sub_groups.push_back(sid);
      sub_group_members_[sid] = bins[i].size();
      out.push_back({UpdateKind::kCreated, sid, std::move(bins[i])});
    }
    for (size_t i = bins.size(); i < state.sub_groups.size(); ++i) {
      SubGroupId sid = state.sub_groups[i];
      sub_group_members_.erase(sid);
      out.push_back({UpdateKind::kDeleted, sid, {}});
    }
    state.sub_groups.resize(bins.size());
  }
  return out;
}

}  // namespace mirabel::aggregation
