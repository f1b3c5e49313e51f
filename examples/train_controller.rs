//! The artifact's §A.4.4 DNN-training flow: generate a labeled dataset of
//! rendered corridor images with randomized poses, train the dual
//! classifier heads on their pixels, and report validation accuracy (the
//! quantity Table 3 lists per model).
//!
//! Run with: `cargo run --release --example train_controller`

use rose_dnn::trainer::{HeadTrainer, TrainConfig};
use rose_envsim::world::World;
use rose_repro::dataset::{generate, DatasetConfig};
use rose_sim_core::rng::SimRng;

fn main() {
    let rng = SimRng::new(0xA44);
    let world = World::tunnel();
    let config = DatasetConfig {
        per_class: 24,
        image_size: 32,
        ..DatasetConfig::default()
    };
    println!(
        "rendering training set ({} images)...",
        config.per_class * 9
    );
    // The corridor renders are structured enough that a linear probe on raw
    // pixels learns them well.
    let train = generate(&world, &config, &rng.split("train"));
    let val = generate(
        &world,
        &DatasetConfig {
            per_class: 8,
            ..config
        },
        &rng.split("val"),
    );

    println!("training heads ({} examples)...", train.len());
    let mut trainer = HeadTrainer::new(
        train[0].features.len(),
        TrainConfig {
            epochs: 80,
            learning_rate: 0.1,
            ..TrainConfig::default()
        },
        &rng,
    );
    let report = trainer.fit(&train);
    let (train_a, train_l) = trainer.evaluate(&train);
    let (val_a, val_l) = trainer.evaluate(&val);

    println!(
        "\nfinal losses: angular {:.3}, lateral {:.3}",
        report.angular_loss, report.lateral_loss
    );
    println!(
        "train accuracy:      angular {:.0}%, lateral {:.0}%",
        train_a * 100.0,
        train_l * 100.0
    );
    println!(
        "validation accuracy: angular {:.0}%, lateral {:.0}%",
        val_a * 100.0,
        val_l * 100.0
    );
    println!("\n(paper: 72%-86% validation accuracy across ResNet6-ResNet34, Table 3)");
}
