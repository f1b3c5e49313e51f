//! The wire format, pinned byte for byte.
//!
//! Round-trip tests pass for any self-consistent codec, and the length
//! checks elsewhere only see sizes. A data packet's length sets the SoC's
//! MMIO cost, so a codec change that moves a byte moves the determinism
//! digest too; these pins name the variant that moved.

use rose::message::{AppMessage, TrailInfo};
use rose_bridge::packet::Packet;
use rose_sim_core::fnv::fnv64;

/// An encoding as hex, or, past 64 bytes, as its length, its first nine
/// bytes (tag and header) in hex, and its FNV-1a digest.
fn pin(bytes: &[u8]) -> String {
    let hex = |b: &[u8]| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
    if bytes.len() <= 64 {
        hex(bytes)
    } else {
        format!(
            "{} bytes {}.. fnv {:#018x}",
            bytes.len(),
            hex(&bytes[..9]),
            fnv64(bytes)
        )
    }
}

/// A 64×64 image with varied pixels and a non-trivial trail rider: the
/// size of every camera answer a mission sends.
fn image() -> AppMessage {
    AppMessage::Image {
        width: 64,
        height: 64,
        pixels: (0..4096u32).map(|i| (i % 251) as u8).collect(),
        trail: TrailInfo {
            lateral_offset: -0.4,
            heading_error: 0.12,
            half_width: 1.6,
            progress: 23.5,
        },
    }
}

#[test]
fn every_packet_variant_encodes_to_its_pinned_bytes() {
    let pins = [
        (
            Packet::GrantCycles {
                cycles: 16_666_666,
                quantum: 3,
            },
            "01100000002a50fe00000000000300000000000000",
        ),
        (
            Packet::CyclesDone {
                cycles: 1,
                quantum: u64::MAX,
            },
            "02100000000100000000000000ffffffffffffffff",
        ),
        (
            Packet::Data {
                seq: 7,
                payload: vec![1, 2, 3],
            },
            "040700000007000000010203",
        ),
        // The warm path's dominant frame: an image answer.
        (
            Packet::Data {
                seq: 11,
                payload: image().encode(),
            },
            "4146 bytes 042d1000000b000000.. fnv 0x017c03228705b9cc",
        ),
        (Packet::Shutdown, "0500000000"),
        (
            Packet::Resync {
                expect_rx: 42,
                quantum: 9,
            },
            "060c0000002a0000000900000000000000",
        ),
    ];
    for (packet, pinned) in pins {
        // No wildcard arm: a new variant does not compile until pinned.
        match packet {
            Packet::GrantCycles { .. }
            | Packet::CyclesDone { .. }
            | Packet::Data { .. }
            | Packet::Shutdown
            | Packet::Resync { .. } => {}
        }
        let bytes = packet.to_bytes();
        assert_eq!(pin(&bytes), pinned, "{}", packet.kind_name());
        let mut appended = vec![0xee];
        packet.encode(&mut appended);
        assert_eq!(appended[1..], bytes[..], "encode appends the same bytes");
        assert_eq!(Packet::decode(&bytes), Ok((packet, bytes.len())));
    }
}

#[test]
fn every_app_message_variant_encodes_to_its_pinned_bytes() {
    let pins = [
        (AppMessage::ImageRequest, "10"),
        (AppMessage::DepthRequest, "11"),
        (AppMessage::ImuRequest, "12"),
        (
            AppMessage::Imu {
                accel: [0.1, -9.81, 0.3],
                gyro: [-0.02, 0.0, 1.5],
            },
            "229a9999999999b93f1f85eb51b89e23c0333333333333d33f\
             7b14ae47e17a94bf0000000000000000000000000000f83f",
        ),
        (
            image(),
            "4137 bytes 204000400000100000.. fnv 0x8d1b68b6862b96dc",
        ),
        (AppMessage::Depth { depth: 17.25 }, "210000000000403140"),
        (
            AppMessage::Command {
                forward: 3.0,
                lateral: -0.5,
                yaw_rate: 0.2,
                altitude: 1.5,
            },
            "300000000000000840000000000000e0bf\
             9a9999999999c93f000000000000f83f",
        ),
    ];
    for (msg, pinned) in pins {
        // No wildcard arm: a new variant does not compile until pinned.
        match msg {
            AppMessage::ImageRequest
            | AppMessage::DepthRequest
            | AppMessage::ImuRequest
            | AppMessage::Imu { .. }
            | AppMessage::Image { .. }
            | AppMessage::Depth { .. }
            | AppMessage::Command { .. } => {}
        }
        let bytes = msg.encode();
        assert_eq!(pin(&bytes), pinned, "{msg:?}");
        assert_eq!(AppMessage::decode(&bytes), Ok(msg));
    }
}
