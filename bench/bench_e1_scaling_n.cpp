// E1 (Figure 1): completion rounds vs n on uniform deployments.
//
// Regenerates Theorem 11's O(log n) shape (for poly-bounded R) and the
// separation against the classical-model baselines: the paper's algorithm
// grows linearly in log2 n (high R^2), while the Decay baseline's
// high-probability cost grows like log^2 n.
#include <cmath>
#include <iostream>

#include "algorithms/registry.hpp"
#include "core/fading_cr.hpp"
#include "deploy/generators.hpp"
#include "exp_common.hpp"
#include "sim/parallel_runner.hpp"
#include "stats/regression.hpp"
#include "util/cli.hpp"

namespace fcr::bench {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli(
      "E1: rounds vs n for the paper's algorithm and baselines "
      "(uniform square deployments, side 2*sqrt(n) => density ~ constant, "
      "R ~ poly(n)).");
  cli.add_flag("sizes", "16,32,64,128,256,512,1024,2048", "n values");
  cli.add_flag("trials", "40", "trials per n (fading, SINR channel)");
  cli.add_flag("radio-trials", "300", "trials per n (radio baselines; cheap)");
  cli.add_flag("p", "0.2", "broadcast probability");
  add_csv_flag(cli);
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << '\n';
    return 1;
  }
  if (cli.help_requested()) {
    cli.print_help(std::cout);
    return 0;
  }

  banner("E1 / Figure 1",
         "Theorem 11 shape: rounds(fading) = Theta(log n) on uniform "
         "deployments; decay baseline p95 grows ~ log^2 n.");

  const auto sizes = cli.get_int_list("sizes");
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const auto radio_trials =
      static_cast<std::size_t>(cli.get_int("radio-trials"));
  const double p = cli.get_double("p");

  TablePrinter table({"n", "log2(n)", "fading med", "fading p95", "decay med",
                      "decay p95", "aloha med", "p95 ratio d/f"});

  std::vector<double> xs, fading_med, decay_p95;
  for (const auto n_signed : sizes) {
    const auto n = static_cast<std::size_t>(n_signed);
    const double side = 2.0 * std::sqrt(static_cast<double>(n));
    const DeploymentFactory deploy = [n, side](Rng& rng) {
      return uniform_square(n, side, rng).normalized();
    };

    const auto fading = run_trials_parallel(
        deploy, sinr_channel_factory(3.0, 1.5, 1e-9),
        [p](const Deployment&) {
          return std::make_unique<FadingContentionResolution>(p);
        },
        trial_config(trials, n));
    const auto decay = run_trials_parallel(
        deploy, radio_channel_factory(false),
        [](const Deployment& dep) { return make_algorithm("decay", dep.size()); },
        trial_config(radio_trials, n + 1));
    const auto aloha = run_trials_parallel(
        deploy, radio_channel_factory(false),
        [](const Deployment& dep) { return make_algorithm("aloha", dep.size()); },
        trial_config(radio_trials, n + 2));

    const double log_n = std::log2(static_cast<double>(n));
    xs.push_back(log_n);
    fading_med.push_back(fading.summary().median);
    decay_p95.push_back(rounds_quantile(decay, 0.95));

    table.row({TablePrinter::fmt(static_cast<std::uint64_t>(n)),
               TablePrinter::fmt(log_n, 1),
               TablePrinter::fmt(fading.summary().median, 1),
               TablePrinter::fmt(rounds_quantile(fading, 0.95), 1),
               TablePrinter::fmt(decay.summary().median, 1),
               TablePrinter::fmt(rounds_quantile(decay, 0.95), 1),
               TablePrinter::fmt(aloha.summary().median, 1),
               TablePrinter::fmt(rounds_quantile(decay, 0.95) /
                                     rounds_quantile(fading, 0.95),
                                 2)});
  }
  emit(cli, table, "e1_scaling_n_table");

  // One size leaves nothing to fit: say so on the verdict line and exit
  // nonzero without reaching linear_fit (which rejects fewer than two
  // points).
  if (xs.size() < 2) {
    std::cout << "\nSHAPE E1: SKIP — the rounds-vs-log n fit needs at least "
                 "two --sizes, got "
              << xs.size() << "\n";
    return 1;
  }

  // Shape checks: fading median ~ linear in log n with a strong fit, and
  // the decay baseline's tail is slower at every non-trivial n. (The full
  // log^2 n behaviour lives at the 1 - 1/n quantile, measured by E3 with a
  // larger trial budget — the p95 here only requires O(1) sweeps of the
  // Theta(log n)-long decay ladder.)
  const LinearFit fading_fit = linear_fit(xs, fading_med);
  std::cout << "\nfading median ~ " << fading_fit.intercept << " + "
            << fading_fit.slope << " * log2(n),  R^2 = " << fading_fit.r_squared
            << '\n';

  bool decay_slower_tail = true;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] >= 8.0 && decay_p95[i] <= fading_fit.predict(xs[i])) {
      decay_slower_tail = false;
    }
  }
  const bool ok =
      fading_fit.r_squared > 0.9 && fading_fit.slope > 0.0 && decay_slower_tail;
  shape("E1", ok,
        "fading median linear in log n (R^2 > 0.9); decay tail slower at "
        "every n >= 256");
  return ok ? 0 : 2;
}

}  // namespace
}  // namespace fcr::bench

int main(int argc, char** argv) { return fcr::bench::run(argc, argv); }
