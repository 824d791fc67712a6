//! The functional workload `resv_stream`: one long COIN-like stream
//! through the small streaming video LLM with ReSV retrieval on real
//! keys.

use vrex_core::resv::{ResvConfig, ResvPolicy};
use vrex_model::{Frame, ModelConfig, RunStats, StreamingVideoLlm, VideoStream, VideoStreamConfig};

use crate::probe::{CountedPolicy, Probe};
use crate::report::{Digest, Fnv, Metrics, Source};
use crate::split_seed;

/// Frames per stream.
pub const FRAMES: usize = 128;
/// A question turn follows every this many frames.
const TURN_EVERY: usize = 16;
/// Question tokens per turn.
const QUESTION_TOKENS: usize = 5;
/// Answer tokens generated per turn.
const ANSWER_TOKENS: usize = 8;

/// Model, weights and the generated stream.
pub struct Inputs {
    cfg: ModelConfig,
    llm: StreamingVideoLlm,
    frames: Vec<Frame>,
    questions: Vec<Vec<usize>>,
}

/// Builds the model and the stream from `seed`.
pub fn setup(seed: u64) -> Inputs {
    let cfg = ModelConfig::small();
    let llm = StreamingVideoLlm::new(cfg.clone(), split_seed(seed, 0));
    let frames = VideoStream::new(VideoStreamConfig::coin_like(
        cfg.tokens_per_frame,
        cfg.hidden_dim,
        split_seed(seed, 1),
    ))
    .take_frames(FRAMES);
    let questions = (0..FRAMES / TURN_EVERY)
        .map(|turn| {
            (0..QUESTION_TOKENS)
                .map(|i| {
                    (split_seed(seed, 1000 + (turn * QUESTION_TOKENS + i) as u64)
                        % cfg.vocab_size as u64) as usize
                })
                .collect()
        })
        .collect();
    Inputs {
        cfg,
        llm,
        frames,
        questions,
    }
}

/// What one stream produced.
pub struct Run {
    answers: Vec<Vec<usize>>,
    prefill: RunStats,
    generation: RunStats,
    policy: ResvPolicy,
    selections: u64,
    appends: u64,
    cache_tokens: usize,
    expected_tokens: usize,
}

/// Runs the stream once; `track_recall` adds the (slower) attention
/// recall measurement.
pub fn run_stream<P: Probe>(inputs: &mut Inputs, probe: &mut P, track_recall: bool) -> Run {
    let Inputs {
        cfg,
        llm,
        frames,
        questions,
    } = inputs;
    llm.reset();
    let mut policy = ResvPolicy::new(cfg, ResvConfig::paper_defaults());
    let mut prefill = RunStats::new(cfg, track_recall);
    let mut generation = RunStats::new(cfg, track_recall);
    let mut answers = Vec::new();
    let root = probe.enter("workload", 0);
    let stream = probe.enter("stream", 1);
    let mut counted = CountedPolicy::new(&mut policy, probe, 1);
    for (i, frame) in frames.iter().enumerate() {
        let span = counted.probe.enter("frame", 1);
        llm.process_frame(frame, &mut counted, &mut prefill);
        counted.probe.exit(span);
        if (i + 1) % TURN_EVERY == 0 {
            let span = counted.probe.enter("turn", 1);
            let hidden = llm.process_text(&questions[i / TURN_EVERY], &mut counted, &mut prefill);
            answers.push(llm.generate(&hidden, ANSWER_TOKENS, &mut counted, &mut generation));
            counted.probe.exit(span);
        }
    }
    let (selections, appends) = (counted.selections, counted.appends);
    probe.exit(stream);
    probe.exit(root);
    Run {
        answers,
        prefill,
        generation,
        policy,
        selections,
        appends,
        cache_tokens: llm.cache().len(),
        expected_tokens: FRAMES * cfg.tokens_per_frame
            + questions.len() * (QUESTION_TOKENS + ANSWER_TOKENS),
    }
}

impl Run {
    /// Digest of the stream's outputs: answers, selection ratios and
    /// ReSV work. Recall is left out, so a recall-tracking pass and a
    /// plain pass must agree.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for (turn, answer) in self.answers.iter().enumerate() {
            let mut h = Fnv::default();
            for &t in answer {
                h.u64(t as u64);
            }
            d.add(0, turn as u64, h.0);
        }
        let w = self.policy.work_stats();
        let mut h = Fnv::default();
        h.f64(self.prefill.overall_ratio());
        h.f64(self.generation.overall_ratio());
        h.u64(self.cache_tokens as u64);
        h.u64(self.selections);
        h.u64(self.appends);
        h.u64(w.cluster_scores_computed);
        h.u64(w.token_scores_equivalent);
        h.u64(w.early_exit.buckets_visited);
        h.u64(w.early_exit.elements_scanned);
        h.u64(w.clustering.hamming_comparisons);
        d.add(0, u64::MAX, h.0);
        d
    }

    /// Checks the stream's invariants.
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let expected = self.expected_tokens;
        if self.cache_tokens != expected {
            bad.push(format!(
                "cache holds {} tokens, expected {expected}",
                self.cache_tokens
            ));
        }
        if self.answers.len() != FRAMES / TURN_EVERY
            || self.answers.iter().any(|a| a.len() != ANSWER_TOKENS)
        {
            bad.push("not every turn produced a full answer".to_string());
        }
        for (stage, r) in [
            ("prefill", self.prefill.overall_ratio()),
            ("generation", self.generation.overall_ratio()),
        ] {
            if !(r > 0.0 && r <= 1.0) {
                bad.push(format!("{stage} selected ratio {r} outside (0, 1]"));
            }
        }
        bad
    }

    /// `kv_selected_pct` and, from a recall-tracking run, `attn_recall`.
    pub fn outcomes(&self, out: &mut Metrics) {
        out.push(
            "kv_selected_pct",
            self.prefill.overall_ratio() * 100.0,
            "%",
            Source::Functional,
            format!(
                "prefill stage over {FRAMES} frames; generation stage {:.2}%; \
                 paper 32.7% frame / 2.5% text",
                self.generation.overall_ratio() * 100.0
            ),
        );
        out.push(
            "attn_recall",
            self.prefill.mean_recall(),
            "ratio",
            Source::Functional,
            format!(
                "prefill stage, untimed recall pass; generation stage {:.4}",
                self.generation.mean_recall()
            ),
        );
    }

    /// ReSV work counters.
    pub fn layers(&self, out: &mut Metrics) {
        let w = self.policy.work_stats();
        let f = Source::Functional;
        out.push(
            "resv.selections",
            self.selections as f64,
            "count",
            f,
            "per stream",
        );
        let score_ratio = if w.token_scores_equivalent == 0 {
            0.0
        } else {
            w.cluster_scores_computed as f64 / w.token_scores_equivalent as f64
        };
        out.push(
            "resv.score_ratio",
            score_ratio,
            "ratio",
            f,
            "cluster scores / token-equivalent scores",
        );
        out.push(
            "resv.buckets_visited_frac",
            w.early_exit.mean_visited_fraction(),
            "ratio",
            f,
            "",
        );
        out.push(
            "resv.elements_scanned",
            w.early_exit.elements_scanned as f64,
            "count",
            f,
            "per stream",
        );
        out.push(
            "resv.tokens_per_cluster",
            self.policy.mean_tokens_per_cluster(),
            "count",
            f,
            "paper: ~32 on real COIN keys",
        );
        out.push(
            "resv.hamming_comparisons",
            w.clustering.hamming_comparisons as f64,
            "count",
            f,
            "per stream",
        );
    }
}
