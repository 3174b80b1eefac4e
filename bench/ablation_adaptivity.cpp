// Ablation A1: sensitivity of the adaptive metrics to their adaptivity
// factors k_G and k_L (paper §7.1: "there exists no overall best value").
//
// Two sweeps at the default operating point (m = 3, OLR = 0.8, ETD = 25%):
//   * ADAPT-G success ratio vs k_G;
//   * ADAPT-L success ratio vs k_L.
// Findings this bench documents: ADAPT-L peaks at the paper's default
// k_L = 0.2; ADAPT-G's paper default k_G = 1.5 is past our harness's
// optimum (~0.3–0.75) — with a moderate k_G the paper's claim that the
// adaptive metrics beat the non-adaptive ones holds here as well (the
// PURE/NORM reference rows are printed for comparison).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_adaptivity",
      "A1: sensitivity to the adaptivity factors k_G / k_L");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  ThreadPool pool = bench::make_pool(cli);
  ExperimentConfig base = bench::base_config(cli);
  base.generator.platform.processor_count = 3;

  // Reference points: the non-adaptive metrics at the same operating point.
  for (const DistributionTechnique t : {DistributionTechnique::kSlicingPure,
                                        DistributionTechnique::kSlicingNorm}) {
    ExperimentConfig c = base;
    c.technique = t;
    const SweepAggregate r = run_experiment(c, pool);
    std::printf("reference %-12s success %s\n", to_string(t).c_str(),
                format_percent(r.success_ratio(), 1).c_str());
  }
  std::printf("\n");

  {
    const std::vector<SeriesSpec> specs{
        {"ADAPT-G", [base](double k) {
           ExperimentConfig c = base;
           c.technique = DistributionTechnique::kSlicingAdaptG;
           c.metric_params.k_global = k;
           return c;
         }}};
    const SweepResult sweep =
        run_sweep("k_G", {0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0}, specs,
                  pool, cli.get_bool("verbose"));
    bench::report("A1a — ADAPT-G success ratio vs k_G (paper default 1.5)",
                  sweep, cli);
  }
  {
    const std::vector<SeriesSpec> specs{
        {"ADAPT-L", [base](double k) {
           ExperimentConfig c = base;
           c.technique = DistributionTechnique::kSlicingAdaptL;
           c.metric_params.k_local = k;
           return c;
         }}};
    const SweepResult sweep = run_sweep(
        "k_L", {0.025, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}, specs, pool,
        cli.get_bool("verbose"));
    bench::report("A1b — ADAPT-L success ratio vs k_L (paper default 0.2)",
                  sweep, cli);
  }
  return 0;
}
