//! Microbenchmarks of the simulation substrates: each group measures one
//! model the co-simulation is built from, so regressions in simulator
//! performance (not simulated performance) are visible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rose_bridge::packet::Packet;
use rose_dnn::perception::PerceptionHead;
use rose_dnn::{DnnModel, Tensor};
use rose_envsim::camera::{render, CameraConfig};
use rose_envsim::dynamics::{MotorCommand, QuadrotorBody, QuadrotorParams, RigidBodyState};
use rose_envsim::world::World;
use rose_sim_core::math::Vec3;
use rose_sim_core::rng::SimRng;
use rose_socsim::cpu::{CpuConfig, CpuModel};
use rose_socsim::gemmini::{ConvShape, GemminiConfig, GemminiModel};
use rose_socsim::kernel::Kernel;
use rose_socsim::mem::{MemConfig, MemSystem};
use bytes::BytesMut;

fn bench_gemmini(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemmini_model");
    group.bench_function("matmul_256", |b| {
        b.iter(|| {
            let mut g = GemminiModel::new(GemminiConfig::default());
            let mut m = MemSystem::new(MemConfig::default());
            black_box(g.matmul(256, 256, 256, &mut m))
        })
    });
    group.bench_function("conv_stage", |b| {
        let shape = ConvShape {
            in_c: 64,
            out_c: 64,
            out_h: 40,
            out_w: 40,
            ksize: 3,
        };
        b.iter(|| {
            let mut g = GemminiModel::new(GemminiConfig::default());
            let mut m = MemSystem::new(MemConfig::default());
            black_box(g.conv(shape, &mut m))
        })
    });
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_system");
    group.bench_function("stream_64k_accesses", |b| {
        b.iter(|| {
            let mut m = MemSystem::new(MemConfig::default());
            let mut total = 0u64;
            for i in 0..65536u64 {
                total += m.access(i * 8, i % 4 == 0);
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_cpu_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_model");
    for (name, cfg) in [("rocket", CpuConfig::rocket()), ("boom", CpuConfig::boom())] {
        group.bench_function(name, |b| {
            let trace = Kernel::MatMul { m: 24, k: 24, n: 24 }.trace();
            b.iter(|| {
                let mut cpu = CpuModel::new(cfg);
                let mut m = MemSystem::new(MemConfig::default());
                black_box(cpu.run_trace(&trace, &mut m))
            })
        });
    }
    group.finish();
}

fn bench_packets(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_codec");
    let data = Packet::Data {
        seq: 0,
        payload: vec![7u8; 4096],
    };
    group.bench_function("encode_4k", |b| {
        b.iter(|| black_box(data.to_bytes()))
    });
    group.bench_function("decode_4k", |b| {
        let bytes = data.to_bytes();
        b.iter(|| {
            let mut buf = BytesMut::from(&bytes[..]);
            black_box(Packet::decode(&mut buf).unwrap())
        })
    });
    group.finish();
}

fn bench_physics(c: &mut Criterion) {
    let mut group = c.benchmark_group("environment");
    group.bench_function("quadrotor_step", |b| {
        let p = QuadrotorParams::default();
        let mut body = QuadrotorBody::new(
            p,
            RigidBodyState {
                position: Vec3::new(0.0, 0.0, 2.0),
                ..RigidBodyState::default()
            },
        );
        let cmd = MotorCommand::uniform(p.hover_command());
        b.iter(|| {
            body.step(cmd, 1.0 / 480.0);
            black_box(body.state().position)
        })
    });
    group.bench_function("camera_render_tunnel", |b| {
        let world = World::tunnel();
        let cfg = CameraConfig::default();
        b.iter(|| black_box(render(&world, Vec3::new(5.0, 0.2, 1.5), 0.05, &cfg)))
    });
    group.bench_function("camera_render_s_shape", |b| {
        let world = World::s_shape();
        let cfg = CameraConfig::default();
        b.iter(|| black_box(render(&world, Vec3::new(5.0, 0.2, 1.5), 0.05, &cfg)))
    });
    group.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    use rose_socsim::SharedTimingCache;

    let mut group = c.benchmark_group("cost_model");
    // Cold kernel expansion: what every mission paid per unique kernel
    // before the timing cache, and what a cache miss still costs. Times
    // the production path, which streams the kernel into the pipeline.
    group.bench_function("kernel_expansion_cold", |b| {
        let kernel = Kernel::MatMul { m: 24, k: 24, n: 24 };
        b.iter(|| {
            let mut cpu = CpuModel::new(CpuConfig::boom());
            let mut m = MemSystem::new(MemConfig::default());
            black_box(cpu.run_kernel(&kernel, &mut m))
        })
    });
    // Closed-form Gemmini timing: the per-layer cost of a cached-miss
    // accelerator op (no instruction stream, pure arithmetic).
    group.bench_function("gemmini_closed_form", |b| {
        b.iter(|| {
            let mut g = GemminiModel::new(GemminiConfig::default());
            let mut m = MemSystem::new(MemConfig::default());
            black_box(g.matmul(192, 192, 192, &mut m))
        })
    });
    // Disk round trip: what a warm sweep pays once at startup to skip
    // every cold expansion above.
    group.bench_function("timing_cache_load", |b| {
        let path = std::env::temp_dir().join(format!(
            "rose-micro-timing-cache-{}.snap",
            std::process::id()
        ));
        let cache = SharedTimingCache::load(&path);
        let fp = 0xfeed_beef_u64;
        for m in 0..64usize {
            cache.insert_matmul(fp, m, 24, 24, rose_socsim::timing_cache::AccelEntry {
                run: Default::default(),
                bus_bytes: 4096,
                cycles_delta: 1000,
            });
        }
        cache.persist().expect("bench cache persists");
        b.iter(|| black_box(SharedTimingCache::load(&path).len()));
        let _ = std::fs::remove_file(&path);
    });
    group.finish();
}

fn bench_dnn(c: &mut Criterion) {
    let mut group = c.benchmark_group("dnn");
    group.bench_function("perception_classify", |b| {
        let mut head = PerceptionHead::new(DnnModel::ResNet14, &SimRng::new(1));
        b.iter(|| black_box(head.classify(0.2, -0.4, 1.6)))
    });
    group.bench_function("resnet6_forward_32px", |b| {
        let net = DnnModel::ResNet6.build(&SimRng::new(2), Some(32));
        let input = Tensor::from_fn(&[3, 32, 32], |i| (i % 13) as f32 / 13.0);
        b.iter(|| black_box(net.forward(&input)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemmini,
    bench_memory,
    bench_cpu_model,
    bench_packets,
    bench_physics,
    bench_cost_model,
    bench_dnn
);
criterion_main!(benches);
