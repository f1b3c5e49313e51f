//! Microarchitectural ablations of the design choices DESIGN.md calls out:
//! the L2 stream prefetcher, the systolic dataflow, and bus contention.

use rose_bench::{write_csv, TextTable};
use rose_dnn::lower::time_inference;
use rose_dnn::DnnModel;
use rose_sim_core::csv::CsvLog;
use rose_socsim::gemmini::{ConvShape, Dataflow, GemminiConfig, GemminiModel};
use rose_socsim::mem::{MemConfig, MemSystem};
use rose_socsim::SocConfig;

fn main() {
    // 1. Prefetcher: inference latency with and without the L2 stream
    //    prefetcher, per core.
    let mut t = TextTable::new(&["config", "prefetch", "ResNet14 inference (ms)"]);
    let mut csv = CsvLog::new(&["config_b", "prefetch", "ms"]);
    for (i, base) in [SocConfig::config_a(), SocConfig::config_b()]
        .iter()
        .enumerate()
    {
        for prefetch in [true, false] {
            let mut soc = base.clone();
            soc.mem.prefetch = prefetch;
            let ms = time_inference(&soc, DnnModel::ResNet14) as f64 / 1e6;
            t.row(vec![
                base.to_string(),
                prefetch.to_string(),
                format!("{ms:.0}"),
            ]);
            csv.row(&[i as f64, prefetch as u8 as f64, ms]);
        }
    }
    t.print("Ablation 1: L2 stream prefetcher");
    if let Some(p) = write_csv("ablation_prefetch.csv", &csv) {
        println!("wrote {}", p.display());
    }

    // 2. Dataflow: weight-stationary vs output-stationary compute cycles
    //    across ResNet14's distinct conv shapes.
    let mut t = TextTable::new(&["conv shape", "WS cycles", "OS cycles", "WS/OS"]);
    let shapes = [
        ConvShape {
            in_c: 3,
            out_c: 48,
            out_h: 80,
            out_w: 80,
            ksize: 7,
        },
        ConvShape {
            in_c: 48,
            out_c: 48,
            out_h: 40,
            out_w: 40,
            ksize: 3,
        },
        ConvShape {
            in_c: 96,
            out_c: 96,
            out_h: 20,
            out_w: 20,
            ksize: 3,
        },
        ConvShape {
            in_c: 384,
            out_c: 384,
            out_h: 5,
            out_w: 5,
            ksize: 3,
        },
    ];
    for shape in shapes {
        let run = |dataflow| {
            let mut g = GemminiModel::new(GemminiConfig {
                dataflow,
                ..GemminiConfig::default()
            });
            let mut m = MemSystem::new(MemConfig::default());
            g.conv(shape, &mut m).compute_cycles
        };
        let ws = run(Dataflow::WeightStationary);
        let os = run(Dataflow::OutputStationary);
        t.row(vec![
            format!(
                "{}x{}x{}x{} k{}",
                shape.in_c, shape.out_c, shape.out_h, shape.out_w, shape.ksize
            ),
            ws.to_string(),
            os.to_string(),
            format!("{:.2}", ws as f64 / os as f64),
        ]);
    }
    t.print("Ablation 2: systolic dataflow (the paper picks WS to match the workload)");

    // 3. Bus contention: CPU miss latency under accelerator DMA pressure.
    let mut t = TextTable::new(&["dma utilization", "cold miss latency (cycles)"]);
    for util in [0.0, 0.4, 0.8] {
        let mut m = MemSystem::new(MemConfig::default());
        m.bus_mut().set_dma_utilization(util);
        let lat = m.access(0xdead_0000, false);
        t.row(vec![format!("{util:.1}"), lat.to_string()]);
    }
    t.print("Ablation 3: shared-bus contention on CPU misses");
}
