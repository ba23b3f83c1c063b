// The paper suite's targets: one function per table, figure, ablation and
// extension. Each runs its experiments, prints its figure and its
// paper-vs-measured checks (bench::check), writes its CSVs under
// bench_out/, and returns 0 iff every check held. bench/suite runs them in
// one process, so the phase-A numerics cache computes each app once.
#pragma once

int fig1_baseline();
int fig2_ppm();
int fig3_wavelet();
int fig4_nbody();
int fig5_combined_size();
int fig6_combined_sectors();
int fig7_spatial();
int fig8_temporal();
int table1_rw_mix();
int ablation_trace_overhead();
int ablation_readahead();
int ablation_elevator();
int ablation_memory();
int ablation_atime();
int ext_synthetic_match();
int ext_pious_striping();
int ext_cluster_average();
int ext_replay_tuning();
int ext_region_decomposition();
int ext_checkpoint_class();
int ext_parallel_machine();
