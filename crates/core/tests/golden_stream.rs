//! Golden functional stream: a short ReSV run on the tiny model whose
//! every output is pinned bit for bit.
//!
//! The expected values were recorded with the straightforward kernels
//! (per-bucket rescans in the early-exit selection, one dot product at
//! a time in `Matrix::matmul_transposed`, `BTreeSet` unions). Any
//! optimisation of the functional hot path must leave them unchanged:
//! the ReSV work counters, the prefill and generation selection ratios,
//! the attention recall, the fetched KV bytes and the generated answer
//! tokens.

use vrex_core::hctable::ClusteringStats;
use vrex_core::resv::{EarlyExitStatsSum, ResvConfig, ResvPolicy, ResvWorkStats};
use vrex_model::{ModelConfig, RunStats, StreamingVideoLlm, VideoStream, VideoStreamConfig};

/// Frames in the stream.
const FRAMES: usize = 24;
/// A question turn follows every this many frames.
const TURN_EVERY: usize = 12;
/// Answer tokens generated per turn.
const ANSWER_TOKENS: usize = 6;

#[test]
fn resv_stream_outputs_are_pinned() {
    let cfg = ModelConfig::tiny();
    let mut llm = StreamingVideoLlm::new(cfg.clone(), 17);
    let mut policy = ResvPolicy::new(&cfg, ResvConfig::paper_defaults());
    let mut video = VideoStream::new(VideoStreamConfig::coin_like(
        cfg.tokens_per_frame,
        cfg.hidden_dim,
        23,
    ));
    let mut prefill = RunStats::new(&cfg, true);
    let mut generation = RunStats::new(&cfg, true);
    let questions: [&[usize]; 2] = [&[3, 141, 59, 26, 5], &[35, 89, 79, 32, 38]];
    let mut answers = Vec::new();
    for i in 0..FRAMES {
        let frame = video.next_frame();
        llm.process_frame(&frame, &mut policy, &mut prefill);
        if (i + 1) % TURN_EVERY == 0 {
            let hidden = llm.process_text(questions[i / TURN_EVERY], &mut policy, &mut prefill);
            answers.push(llm.generate(&hidden, ANSWER_TOKENS, &mut policy, &mut generation));
        }
    }

    assert_eq!(
        policy.work_stats(),
        ResvWorkStats {
            cluster_scores_computed: 27_740,
            token_scores_equivalent: 53_912,
            early_exit: EarlyExitStatsSum {
                selections: 912,
                buckets_visited: 11_976,
                buckets_total: 29_184,
                elements_scanned: 407_368,
                elements_sorted: 3_699,
            },
            clustering: ClusteringStats {
                tokens_inserted: 472,
                hamming_comparisons: 9_153,
                clusters_created: 202,
            },
        }
    );
    assert_eq!(
        answers,
        vec![
            vec![19, 61, 19, 61, 19, 19],
            vec![205, 205, 205, 205, 205, 111]
        ]
    );
    assert_eq!(prefill.overall_ratio().to_bits(), 0x3fda_23b4_2ce7_e407);
    assert_eq!(generation.overall_ratio().to_bits(), 0x3fbc_5c5c_5c5c_5c5c);
    assert_eq!(prefill.mean_recall().to_bits(), 0x3fe2_cab5_e14d_fdb0);
    assert_eq!(generation.mean_recall().to_bits(), 0x3fd6_7a61_3ef5_eef1);
    // Distinct KV bytes fetched: the decoder's per-KV-head unions.
    let (p, g) = (prefill.summary(), generation.summary());
    assert_eq!((p.fetch_bytes, p.full_fetch_bytes), (227_136, 356_096));
    assert_eq!((g.fetch_bytes, g.full_fetch_bytes), (53_504, 261_120));
}
