//! Cross-crate property-based tests (proptest) on the co-simulation's
//! structural invariants.

use proptest::prelude::*;
use rose::message::{AppMessage, TrailInfo};
use rose_bridge::packet::Packet;
use rose_sim_core::cycles::{ClockSpec, FrameSpec, SyncRatio};
use rose_sim_core::math::{wrap_angle, Quat, Vec3};
use rose_sim_core::pid::{Pid, PidConfig};
use rose_socsim::mem::{Cache, CacheConfig};

proptest! {
    /// Any data payload survives a packet encode/decode roundtrip, for
    /// any sequence number.
    #[test]
    fn packet_data_roundtrip(
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..8192),
    ) {
        let pkt = Packet::Data { seq, payload };
        let buf = pkt.to_bytes();
        let (decoded, used) = Packet::decode(&buf).unwrap();
        prop_assert_eq!(decoded, pkt);
        prop_assert_eq!(used, buf.len());
    }

    /// Decoding never panics on arbitrary bytes, and a decoded packet
    /// never claims more bytes than the buffer holds.
    #[test]
    fn packet_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok((_, used)) = Packet::decode(&raw) {
            prop_assert!(used <= raw.len());
        }
    }

    /// App messages roundtrip for arbitrary finite field values.
    #[test]
    fn app_command_roundtrip(
        forward in -50.0f64..50.0,
        lateral in -50.0f64..50.0,
        yaw_rate in -10.0f64..10.0,
        altitude in 0.0f64..100.0,
    ) {
        let msg = AppMessage::Command { forward, lateral, yaw_rate, altitude };
        prop_assert_eq!(AppMessage::decode(&msg.encode()).unwrap(), msg);
    }

    /// Image messages roundtrip with arbitrary pixel payloads.
    #[test]
    fn app_image_roundtrip(pixels in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let msg = AppMessage::Image {
            width: 64,
            height: 64,
            pixels,
            trail: TrailInfo { lateral_offset: 0.5, heading_error: -0.1, half_width: 1.6, progress: 3.0 },
        };
        prop_assert_eq!(AppMessage::decode(&msg.encode()).unwrap(), msg);
    }

    /// App message decoding never panics on arbitrary bytes.
    #[test]
    fn app_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = AppMessage::decode(&raw);
    }

    /// Equation 1 invariant: frames → cycles → frames is lossless for
    /// whole sync periods.
    #[test]
    fn sync_ratio_roundtrip(
        mhz in 1u64..4000,
        fps in 1u32..240,
        frames in 1u64..1000,
    ) {
        let ratio = SyncRatio::new(ClockSpec::from_mhz(mhz), FrameSpec::from_hz(fps));
        prop_assume!(ratio.cycles_per_frame() > 0);
        let cycles = ratio.cycles_for_frames(frames);
        prop_assert_eq!(ratio.frames_for_cycles(cycles), frames);
    }

    /// wrap_angle always lands in (-pi, pi] and preserves the angle
    /// modulo 2*pi.
    #[test]
    fn wrap_angle_invariants(a in -100.0f64..100.0) {
        let w = wrap_angle(a);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        let diff = (a - w) / std::f64::consts::TAU;
        prop_assert!((diff - diff.round()).abs() < 1e-9);
    }

    /// Quaternion rotation preserves vector length.
    #[test]
    fn quat_rotation_is_isometric(
        roll in -3.0f64..3.0,
        pitch in -1.5f64..1.5,
        yaw in -3.0f64..3.0,
        x in -10.0f64..10.0,
        y in -10.0f64..10.0,
        z in -10.0f64..10.0,
    ) {
        let q = Quat::from_euler(roll, pitch, yaw);
        let v = Vec3::new(x, y, z);
        prop_assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-9);
    }

    /// A PID with an output limit never exceeds it, for any gain set.
    #[test]
    fn pid_respects_output_limit(
        kp in 0.0f64..100.0,
        ki in 0.0f64..100.0,
        kd in 0.0f64..10.0,
        limit in 0.01f64..10.0,
        target in -100.0f64..100.0,
    ) {
        let mut pid = Pid::new(PidConfig::pid(kp, ki, kd).with_output_limit(limit));
        for step in 0..50 {
            let measured = (step as f64).sin() * 10.0;
            let out = pid.update(target, measured, 0.01);
            prop_assert!(out.abs() <= limit + 1e-12, "out {out} limit {limit}");
        }
    }

    /// The first access to any line always misses; an immediate repeat
    /// always hits.
    #[test]
    fn cache_cold_miss_then_hit(addrs in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 16 * 1024, ways: 4, line_bytes: 64 });
        for &addr in &addrs {
            let first = cache.access(addr, false);
            let second = cache.access(addr, false);
            // first may hit (earlier addr on the same line) but the
            // immediate repeat must hit.
            let _ = first;
            prop_assert!(second, "repeat access to {addr:#x} missed");
        }
    }

    /// Cache hit+miss counts always equal total accesses.
    #[test]
    fn cache_stats_conserve_accesses(addrs in proptest::collection::vec(0u64..1u64 << 20, 0..256)) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 32 });
        for &addr in &addrs {
            cache.access(addr, addr % 3 == 0);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, addrs.len() as u64);
    }
}

/// World trail queries are consistent: points on the centerline have ~zero
/// lateral offset everywhere along both corridors.
#[test]
fn centerline_has_zero_offset() {
    use rose_envsim::world::World;
    let tunnel = World::tunnel();
    for i in 0..50 {
        let x = i as f64;
        let q = tunnel.trail_query(Vec3::new(x, 0.0, 1.0), 0.0);
        assert!(q.lateral_offset.abs() < 1e-9, "tunnel offset at x={x}");
    }
    let s = World::s_shape();
    for i in 0..80 {
        let x = i as f64;
        let y = 5.0 * (std::f64::consts::PI * x / 40.0).sin();
        let q = s.trail_query(Vec3::new(x, y, 1.0), 0.0);
        assert!(
            q.lateral_offset.abs() < 0.08,
            "s-shape offset {} at x={x}",
            q.lateral_offset
        );
    }
}
