// Calibration report: prints how the synthetic corpus generator's latent
// traits map onto observables (promotion rate, final votes, early cascade
// mix), band by band. Use this when re-tuning the generator's calibration
// constants (data/synthetic.cpp, the appeal bands in data/synthetic.h, the
// vote models' .cpp files and dynamics/step_story.h) against the paper's
// measured marginals (Fig. 2a, §3 statistics).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/core/cascade.h"
#include "src/data/synthetic.h"
#include "src/obs/log.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace {

struct Band {
  const char* name;
  digg::data::AppealBand range;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace digg;
  const bench::Context ctx = bench::make_context(
      argc, argv, "Calibration report: latent traits vs observables");
  const data::SyntheticCorpus& synthetic = ctx.synthetic;
  const data::Corpus& corpus = synthetic.corpus;
  obs::log_info("calibration_report", "corpus ready",
                {{"seed", ctx.scenario.seed},
                 {"scenario", ctx.scenario.name.c_str()},
                 {"users", corpus.user_count()},
                 {"stories", corpus.story_count()},
                 {"front_page", corpus.front_page.size()},
                 {"upcoming", corpus.upcoming.size()}});

  // Index stories by id to join with traits.
  std::vector<const data::Story*> by_id(corpus.story_count(), nullptr);
  for (const data::Story& s : corpus.front_page) by_id[s.id] = &s;
  for (const data::Story& s : corpus.upcoming) by_id[s.id] = &s;

  const Band bands[] = {{"dull", data::kDullAppeal},
                        {"mid", data::kMidAppeal},
                        {"hot", data::kHotAppeal}};
  stats::TextTable table({"band", "stories", "promoted", "med votes",
                          "p10 votes", "p90 votes", "med v10", "<500", ">1500"});
  for (const Band& band : bands) {
    std::vector<double> votes;
    std::vector<double> v10s;
    std::size_t total = 0;
    std::size_t promoted = 0;
    std::size_t below500 = 0;
    std::size_t above1500 = 0;
    for (std::size_t id = 0; id < corpus.story_count(); ++id) {
      const double g = synthetic.traits[id].general;
      if (g < band.range.lo || g >= band.range.hi || by_id[id] == nullptr)
        continue;
      const data::Story& s = *by_id[id];
      ++total;
      if (!s.promoted()) continue;
      ++promoted;
      votes.push_back(static_cast<double>(s.vote_count()));
      v10s.push_back(static_cast<double>(
          core::in_network_votes(s, corpus.network, 10)));
      if (s.vote_count() < 500) ++below500;
      if (s.vote_count() > 1500) ++above1500;
    }
    const stats::Summary sum = stats::summarize(votes);
    const stats::Summary v10sum = stats::summarize(v10s);
    table.add_row({band.name, stats::fmt(std::int64_t(total)),
                   stats::fmt(std::int64_t(promoted)), stats::fmt(sum.median, 0),
                   stats::fmt(votes.empty() ? 0.0 : stats::quantile(votes, 0.1), 0),
                   stats::fmt(votes.empty() ? 0.0 : stats::quantile(votes, 0.9), 0),
                   stats::fmt(v10sum.median, 1),
                   stats::fmt(std::int64_t(below500)),
                   stats::fmt(std::int64_t(above1500))});
  }
  std::printf("%s\n", table.render().c_str());

  // Front-page aggregate: the Fig. 2a shape targets.
  std::vector<double> fp_votes = data::final_votes(corpus.front_page);
  const stats::Summary fp = stats::summarize(fp_votes);
  const auto frac = [&](auto pred) {
    return static_cast<double>(
               std::count_if(fp_votes.begin(), fp_votes.end(), pred)) /
           static_cast<double>(fp_votes.empty() ? 1 : fp_votes.size());
  };
  std::printf("front page: median=%.0f  <500: %s  >1500: %s  (targets ~20%% each)\n",
              fp.median,
              stats::fmt_pct(frac([](double v) { return v < 500.0; })).c_str(),
              stats::fmt_pct(frac([](double v) { return v > 1500.0; })).c_str());

  // Promotion speed and boundary (§3: promotion within a day, 43-vote bar).
  std::size_t late_promotions = 0;
  for (const data::Story& s : corpus.front_page) {
    if (s.promoted_at && *s.promoted_at - s.submitted_at >
                             platform::kMinutesPerDay)
      ++late_promotions;
  }
  std::printf("promotions after 24h: %zu (policy window should make this 0)\n",
              late_promotions);

  // In-network share of early votes, front page (Fig. 3b flavour).
  std::size_t half_in_network = 0;
  for (const data::Story& s : corpus.front_page) {
    if (core::in_network_votes(s, corpus.network, 10) >= 5) ++half_in_network;
  }
  std::printf("front-page stories with >=5 of first 10 in-network: %s "
              "(paper: ~30%%)\n",
              stats::fmt_pct(static_cast<double>(half_in_network) /
                             static_cast<double>(std::max<std::size_t>(
                                 1, corpus.front_page.size())))
                  .c_str());
  return 0;
}
