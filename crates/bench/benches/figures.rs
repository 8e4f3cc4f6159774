//! One criterion bench target per paper figure (quick-scale datasets, so
//! the measured time is the cost of the *pipeline*, not of dataset size).
//! Run `cargo bench -p lightor-bench --bench figures`.

use criterion::{criterion_group, criterion_main, Criterion};
use lightor_eval::experiments::{fig10, fig11, fig2, fig3, fig6, fig7, fig8, fig9, table1};
use lightor_eval::ExpEnv;

fn bench_fig2_chat_analysis(c: &mut Criterion) {
    let env = ExpEnv::quick();
    c.bench_function("fig2_chat_analysis", |b| b.iter(|| fig2::run(&env)));
}

fn bench_fig3_play_offsets(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig3_play_offsets");
    g.sample_size(10);
    g.bench_function("both_types", |b| b.iter(|| fig3::compute(&env)));
    g.finish();
}

fn bench_fig6_prediction(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig6_prediction");
    g.sample_size(10);
    g.bench_function("feature_ablation", |b| b.iter(|| fig6::run_a(&env)));
    g.bench_function("training_size", |b| b.iter(|| fig6::run_b(&env)));
    g.finish();
}

fn bench_fig7_adjustment(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig7_adjustment");
    g.sample_size(10);
    g.bench_function("vs_toretter", |b| b.iter(|| fig7::run_a(&env)));
    g.finish();
}

fn bench_fig8_extractor(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig8_extractor");
    g.sample_size(10);
    g.bench_function("four_iterations", |b| b.iter(|| fig8::compute(&env)));
    g.finish();
}

fn bench_fig9_applicability(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig9_applicability");
    g.sample_size(10);
    g.bench_function("catalog_cdfs", |b| b.iter(|| fig9::compute(&env)));
    g.finish();
}

fn bench_fig10_lstm_data_size(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig10_lstm_data_size");
    g.sample_size(10);
    g.bench_function("lightor_vs_chat_lstm", |b| b.iter(|| fig10::run(&env)));
    g.finish();
}

fn bench_fig11_generalization(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("fig11_generalization");
    g.sample_size(10);
    g.bench_function("lol_to_dota2", |b| b.iter(|| fig11::compute(&env)));
    g.finish();
}

fn bench_table1_end_to_end(c: &mut Criterion) {
    let env = ExpEnv::quick();
    let mut g = c.benchmark_group("table1_end_to_end");
    g.sample_size(10);
    g.bench_function("lightor_vs_joint_lstm", |b| {
        b.iter(|| table1::compute(&env))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig2_chat_analysis,
    bench_fig3_play_offsets,
    bench_fig6_prediction,
    bench_fig7_adjustment,
    bench_fig8_extractor,
    bench_fig9_applicability,
    bench_fig10_lstm_data_size,
    bench_fig11_generalization,
    bench_table1_end_to_end,
);
criterion_main!(benches);
