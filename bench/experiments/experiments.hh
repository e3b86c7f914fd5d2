/**
 * @file
 * The paper's figure/table/ablation targets as experiment-registry
 * entries. Each register function declares one experiment — a
 * builder expanding it into ExperimentPoints and a reporter that
 * prints the paper-shaped table — into a registry; the `sweep`
 * CLI (`sweep --filter NAME` runs one) and tests/test_sweep.cc
 * drive them through the shared SweepRunner.
 */

#ifndef FPC_BENCH_EXPERIMENTS_HH
#define FPC_BENCH_EXPERIMENTS_HH

#include "sim/registry.hh"
#include "sim/sweep.hh"

namespace fpcbench {

using namespace fpc;

void registerFig01(ExperimentRegistry &reg);
void registerFig04(ExperimentRegistry &reg);
void registerFig05(ExperimentRegistry &reg);
void registerFig06(ExperimentRegistry &reg);
void registerFig07(ExperimentRegistry &reg);
void registerFig08(ExperimentRegistry &reg);
void registerFig09(ExperimentRegistry &reg);
void registerFig10(ExperimentRegistry &reg);
void registerFig11(ExperimentRegistry &reg);
void registerFig12(ExperimentRegistry &reg);
void registerTable1(ExperimentRegistry &reg);
void registerTable4(ExperimentRegistry &reg);
void registerAblationCapacity(ExperimentRegistry &reg);
void registerAblationPredictor(ExperimentRegistry &reg);
void registerFrontier(ExperimentRegistry &reg);
void registerColocation(ExperimentRegistry &reg);
void registerSamplingValidation(ExperimentRegistry &reg);
void registerIntrospection(ExperimentRegistry &reg);

/** Register every paper experiment, in presentation order. */
void registerAllExperiments(ExperimentRegistry &reg);

} // namespace fpcbench

#endif // FPC_BENCH_EXPERIMENTS_HH
