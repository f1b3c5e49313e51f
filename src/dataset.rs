//! Training-dataset generation, following the paper's §4.2.2 / §A.4.4
//! flow: "both datasets have three classes (left, center, and right), with
//! images sampled for each class, each with randomized positions \[and\]
//! angles".
//!
//! Images are rendered by the environment simulator's camera at poses
//! sampled inside each class's region of the corridor; labels come from
//! the same thresholds the calibrated perception head uses, so a
//! controller trained here is consistent with the closed-loop evaluation.

use rose_dnn::tensor::Tensor;
use rose_envsim::camera::{Camera, CameraConfig};
use rose_envsim::world::World;
use rose_sim_core::math::Vec3;
use rose_sim_core::rng::SimRng;

/// One labeled rendered image.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// The rendered frame as a (3, H, W) tensor in `[0, 1]` (grayscale
    /// replicated across channels, as the controllers expect RGB input).
    pub image: Tensor,
    /// Angular class: 0 = UAV rotated left of the trail, 1 = centered,
    /// 2 = rotated right.
    pub angular: usize,
    /// Lateral class: 0 = UAV left of the trail, 1 = centered, 2 = right.
    pub lateral: usize,
}

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Images per (angular × lateral) class combination.
    pub per_class: usize,
    /// Rendered image edge length (square frames).
    pub image_size: usize,
    /// Heading magnitude (rad) at which the angular class leaves center.
    pub angular_threshold: f64,
    /// Offset fraction of half-width where the lateral class leaves center.
    pub lateral_threshold: f64,
}

impl Default for DatasetConfig {
    fn default() -> DatasetConfig {
        DatasetConfig {
            per_class: 20,
            image_size: 32,
            angular_threshold: 0.12,
            lateral_threshold: 0.30,
        }
    }
}

/// Generates a labeled dataset of rendered corridor views.
///
/// Poses are sampled with randomized positions along the corridor,
/// randomized lateral offsets inside the target lateral class, and
/// randomized headings inside the target angular class.
pub fn generate(world: &World, config: &DatasetConfig, rng: &SimRng) -> Vec<LabeledImage> {
    let mut rng = rng.split("dataset");
    let cam = Camera::new(CameraConfig {
        width: config.image_size,
        height: config.image_size,
        ..CameraConfig::default()
    });
    let half = world.half_width();
    let lat_edge = config.lateral_threshold * half;
    let mut out = Vec::with_capacity(config.per_class * 9);

    for angular in 0..3usize {
        for lateral in 0..3usize {
            for _ in 0..config.per_class {
                // Sample within the class region with margin from the
                // boundaries (the paper's training poses are unambiguous).
                let offset = match lateral {
                    0 => rng.uniform(lat_edge * 1.2, half * 0.85),
                    1 => rng.uniform(-lat_edge * 0.8, lat_edge * 0.8),
                    _ => -rng.uniform(lat_edge * 1.2, half * 0.85),
                };
                let heading_err = match angular {
                    0 => rng.uniform(config.angular_threshold * 1.2, 0.5),
                    1 => rng.uniform(-config.angular_threshold, config.angular_threshold) * 0.8,
                    _ => -rng.uniform(config.angular_threshold * 1.2, 0.5),
                };
                // Random station along the first straight stretch.
                let x = rng.uniform(2.0, world.goal_x() * 0.3);
                let pos = Vec3::new(x, offset, rng.uniform(1.2, 1.8));
                let img = cam.render(world, pos, heading_err);
                out.push(LabeledImage {
                    image: image_to_tensor(&img),
                    angular,
                    lateral,
                });
            }
        }
    }
    out
}

/// Converts a grayscale camera frame to a normalized (3, H, W) tensor.
pub fn image_to_tensor(img: &rose_envsim::camera::Image) -> Tensor {
    let (w, h) = (img.width(), img.height());
    Tensor::from_fn(&[3, h, w], |i| {
        let pixel = i % (h * w);
        img.bytes()[pixel] as f32 / 255.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_balanced_classes() {
        let world = World::tunnel();
        let config = DatasetConfig {
            per_class: 3,
            image_size: 16,
            ..DatasetConfig::default()
        };
        let data = generate(&world, &config, &SimRng::new(1));
        assert_eq!(data.len(), 27);
        for a in 0..3 {
            for l in 0..3 {
                let count = data
                    .iter()
                    .filter(|d| d.angular == a && d.lateral == l)
                    .count();
                assert_eq!(count, 3, "class ({a},{l})");
            }
        }
        for d in &data {
            assert_eq!(d.image.shape(), &[3, 16, 16]);
            assert!(d.image.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn classes_look_different() {
        // Mean brightness of the left half of the frame differs between
        // lateral-left and lateral-right views (nearer wall is brighter).
        let world = World::tunnel();
        let config = DatasetConfig {
            per_class: 8,
            image_size: 16,
            ..DatasetConfig::default()
        };
        let data = generate(&world, &config, &SimRng::new(2));
        let left_half_mean = |t: &Tensor| {
            let mut sum = 0.0;
            let mut n = 0;
            for row in 0..16 {
                for col in 0..8 {
                    sum += t.at3(0, row, col) as f64;
                    n += 1;
                }
            }
            sum / n as f64
        };
        let mean_of = |lat: usize| {
            let xs: Vec<f64> = data
                .iter()
                .filter(|d| d.lateral == lat && d.angular == 1)
                .map(|d| left_half_mean(&d.image))
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let left = mean_of(0); // UAV left of trail: close to left wall
        let right = mean_of(2);
        assert!(
            (left - right).abs() > 0.02,
            "lateral classes indistinguishable: {left} vs {right}"
        );
    }

    #[test]
    fn deterministic_generation() {
        let world = World::tunnel();
        let config = DatasetConfig {
            per_class: 2,
            image_size: 8,
            ..DatasetConfig::default()
        };
        let a = generate(&world, &config, &SimRng::new(5));
        let b = generate(&world, &config, &SimRng::new(5));
        assert_eq!(a, b);
    }
}
