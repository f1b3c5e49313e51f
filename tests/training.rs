//! End-to-end training-flow test (the artifact's §A.4.4 path): render a
//! labeled dataset, train the dual heads, and verify validation accuracy
//! lands in a useful regime.

use rose_dnn::trainer::{HeadTrainer, TrainConfig};
use rose_envsim::world::World;
use rose_repro::dataset::{generate, DatasetConfig};
use rose_sim_core::rng::SimRng;

#[test]
fn trained_heads_beat_table3_floor() {
    let rng = SimRng::new(0xBEEF);
    let world = World::tunnel();
    let config = DatasetConfig {
        per_class: 12,
        image_size: 16,
        ..DatasetConfig::default()
    };
    let train = generate(&world, &config, &rng.split("train"));
    let val = generate(
        &world,
        &DatasetConfig {
            per_class: 6,
            ..config
        },
        &rng.split("val"),
    );

    let mut trainer = HeadTrainer::new(
        train[0].features.len(),
        TrainConfig {
            epochs: 60,
            learning_rate: 0.1,
            ..TrainConfig::default()
        },
        &rng,
    );
    trainer.fit(&train);
    let (val_a, val_l) = trainer.evaluate(&val);
    // Table 3's weakest controller reaches 72%; our linear probe on the
    // simpler renders should clear that floor on both heads.
    assert!(val_a > 0.72, "angular validation accuracy {val_a}");
    assert!(val_l > 0.72, "lateral validation accuracy {val_l}");
}

#[test]
fn s_shape_dataset_also_trains() {
    let rng = SimRng::new(0xFACE);
    let world = World::s_shape();
    let config = DatasetConfig {
        per_class: 10,
        image_size: 16,
        ..DatasetConfig::default()
    };
    let train = generate(&world, &config, &rng.split("train"));
    let mut trainer = HeadTrainer::new(
        train[0].features.len(),
        TrainConfig {
            epochs: 60,
            learning_rate: 0.1,
            ..TrainConfig::default()
        },
        &rng,
    );
    trainer.fit(&train);
    let (acc_a, acc_l) = trainer.evaluate(&train);
    assert!(acc_a > 0.8, "angular train accuracy {acc_a}");
    assert!(acc_l > 0.8, "lateral train accuracy {acc_l}");
}
