// Ablation A6: secondary quality measures (§4.2).
//
// When E-T-E deadlines are loose enough for a near-100% success ratio, the
// paper's earlier work [12] compared metrics by maximum lateness (how far
// from infeasibility the schedule is) and minimum laxity (pre-scheduling
// slack). This bench reproduces that evaluation mode: loose deadlines
// (OLR = 1.5), abort_on_miss disabled so every task set is scheduled to
// completion, reporting mean max-lateness and mean min-laxity per metric.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_quality",
      "A6: max-lateness / min-laxity under loose deadlines");
  cli.add_flag("olr", "1.5", "overall laxity ratio (loose by default)");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  ThreadPool pool = bench::make_pool(cli);
  ExperimentConfig base = bench::base_config(cli);
  base.generator.platform.processor_count = 3;
  base.generator.workload.olr = cli.get_double("olr");
  base.scheduler.abort_on_miss = false;

  std::printf("== A6 — secondary quality measures at OLR=%.2f (m=3) ==\n\n",
              cli.get_double("olr"));
  Table table({"metric", "success", "mean max lateness", "mean min laxity",
               "mean makespan"});
  for (const DistributionTechnique t :
       {DistributionTechnique::kSlicingPure, DistributionTechnique::kSlicingNorm,
        DistributionTechnique::kSlicingAdaptG,
        DistributionTechnique::kSlicingAdaptL}) {
    ExperimentConfig c = base;
    c.technique = t;
    const SweepAggregate r = run_experiment(c, pool);
    table.add_row({to_string(metric_of(t)),
                   format_percent(r.success_ratio(), 1),
                   format_fixed(r.max_lateness.mean(), 2),
                   format_fixed(r.min_laxity.mean(), 2),
                   format_fixed(r.makespan.mean(), 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\n(lateness is negative for feasible schedules — closer to zero "
      "means less margin; the paper's [12] ranking used max lateness)\n\n");
  return 0;
}
