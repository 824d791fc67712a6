//! Fig. 17: DRAM bandwidth usage of V-Rex48 over two decoder layers of
//! the frame-processing stage, showing that KV prediction and retrieval
//! overlap LLM computation with minimal interference.

use vrex_bench::report::{banner, f, Table};
use vrex_hwsim::Engine;
use vrex_model::ModelConfig;
use vrex_system::pipeline::{layer_costs, Workload};
use vrex_system::{Method, PlatformSpec};

fn main() {
    let model = ModelConfig::llama3_8b();
    let platform = PlatformSpec::vrex48();
    let w = Workload::frame(&model, 40_000, 1);
    let c = layer_costs(&platform, Method::ReSV, &w);

    // Split the dense time into QKV-generation and FFN by their FLOP
    // shares (projections ~20%, FFN ~80% for Llama-3 8B).
    let qkv_ps = c.dense_ps / 5;
    let ffn_ps = c.dense_ps - qkv_ps;
    let qkv_bytes = c.dram_bytes / 5;
    let ffn_bytes = (c.dram_bytes - c.fetch_bytes).saturating_sub(qkv_bytes);

    let mut e = Engine::new();
    let lxe = e.add_resource("LXE");
    let dre = e.add_resource("DRE");
    let pcie = e.add_resource("PCIe->DRAM");
    let dram = e.add_resource("DRAM");

    let mut prev_ffn = None;
    for _ in 0..2 {
        let deps: Vec<_> = prev_ffn.into_iter().collect();
        let qkv = e.schedule(lxe, qkv_ps, &deps, "QKV gen", 0);
        e.schedule(dram, qkv_ps, &deps, "weights(QKV)", qkv_bytes);
        // KV prediction on the DRE, concurrent with attention.
        let pred = e.schedule(dre, c.prediction_ps.max(1), &[qkv], "KV prediction", 0);
        let attn = e.schedule(lxe, c.attention_ps, &[qkv], "attention", 0);
        e.schedule(
            dram,
            c.attention_ps,
            &[qkv],
            "KV read",
            c.dram_bytes - qkv_bytes - ffn_bytes,
        );
        // Retrieval for the *next* layer runs through most of this one.
        e.schedule(pcie, c.fetch_ps, &[pred], "KV retrieval", c.fetch_bytes);
        e.schedule(
            dram,
            c.fetch_ps,
            &[pred],
            "KV retrieval->DRAM",
            c.fetch_bytes,
        );
        let ffn = e.schedule(lxe, ffn_ps, &[attn], "FFN", 0);
        e.schedule(dram, ffn_ps, &[attn], "weights(FFN)", ffn_bytes);
        prev_ffn = Some(ffn);
    }

    banner("Fig. 17: DRAM / PCIe bandwidth over two V-Rex48 layers @ 40K, batch 1");
    let span = e.makespan();
    let buckets = 16;
    let mut t = Table::new([
        "t (us)",
        "DRAM BW (GB/s)",
        "PCIe BW (GB/s)",
        "LXE busy",
        "DRE busy",
    ]);
    for b in 0..buckets {
        let t0 = span * b / buckets;
        let t1 = span * (b + 1) / buckets;
        let dram_bw = e.bandwidth_in_window(dram, t0, t1) / 1e9;
        let pcie_bw = e.bandwidth_in_window(pcie, t0, t1) / 1e9;
        let busy = |r| {
            let mut busy = 0u64;
            for iv in e.window(r, t0, t1) {
                busy += iv.end.min(t1).saturating_sub(iv.start.max(t0));
            }
            if busy * 2 > (t1 - t0) {
                "#"
            } else if busy > 0 {
                "+"
            } else {
                "."
            }
        };
        t.row([
            f(t0 as f64 / 1e6, 1),
            f(dram_bw, 1),
            f(pcie_bw, 2),
            busy(lxe).to_string(),
            busy(dre).to_string(),
        ]);
    }
    t.print();
    println!(
        "\nDRAM peak: {:.0} GB/s; PCIe raw: {:.0} GB/s.",
        platform.dram.peak_bytes_per_s() / 1e9,
        platform.pcie.raw_bytes_per_s() / 1e9
    );
    println!(
        "Paper: KV prediction briefly spikes bandwidth (~600 GB/s) but hides under \
         attention; KV retrieval runs most of the layer at ~1% of DRAM bandwidth \
         (PCIe-bound), so both overlap LLM computation with minimal interference."
    );
    println!(
        "LXE utilization {:.0}%, DRE utilization {:.1}%, PCIe utilization {:.0}%.",
        e.utilization(lxe) * 100.0,
        e.utilization(dre) * 100.0,
        e.utilization(pcie) * 100.0
    );
}
