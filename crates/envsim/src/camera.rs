//! First-person-view camera: a software column raycaster.
//!
//! The evaluation drone carries an FPV camera with a 90° field of view
//! (Section 4.1). Unreal's GPU renderer is replaced by a column raycaster:
//! for each image column a horizontal ray is cast into the wall geometry;
//! the hit distance determines the projected wall height and shading, giving
//! the DNN controller the same distance/offset cues the paper's rendered
//! corridors provide (near walls are tall and bright, the open corridor is
//! dark at the vanishing point).
//!
//! A [`Camera`] tabulates its floor shades once from its [`CameraConfig`]
//! and writes each column into the row-major pixel buffer as three runs,
//! sky, wall and floor, with no per-pixel branch. Each ray is a
//! [`World::raycast`], which walks the world's wall grid.

use crate::world::{World, P2};
use rose_sim_core::math::Vec3;

/// Camera intrinsics and image geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Horizontal field of view in radians.
    pub fov: f64,
    /// Maximum render distance in meters.
    pub max_depth: f64,
}

impl Default for CameraConfig {
    /// 64×64 grayscale with the paper's 90° FOV.
    fn default() -> CameraConfig {
        CameraConfig {
            width: 64,
            height: 64,
            fov: std::f64::consts::FRAC_PI_2,
            max_depth: 60.0,
        }
    }
}

/// A grayscale image (row-major, `height * width` bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// Creates a black image.
    pub fn black(width: usize, height: usize) -> Image {
        Image {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at (row, col).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> u8 {
        assert!(row < self.height && col < self.width, "pixel out of bounds");
        self.pixels[row * self.width + col]
    }

    /// Sets the pixel at (row, col).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, v: u8) {
        assert!(row < self.height && col < self.width, "pixel out of bounds");
        self.pixels[row * self.width + col] = v;
    }

    /// Raw pixel bytes, row-major.
    pub fn bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Consumes the image, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.pixels
    }

    /// Rebuilds an image from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != width * height`.
    pub fn from_bytes(width: usize, height: usize, bytes: Vec<u8>) -> Image {
        assert_eq!(bytes.len(), width * height, "image byte length mismatch");
        Image {
            width,
            height,
            pixels: bytes,
        }
    }
}

/// A camera: its intrinsics and the floor shades they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    config: CameraConfig,
    /// The shade of image row `row` on the floor below a wall whose bottom
    /// projects to row `bot_row`, at `bot_row * height + row`. Derived
    /// from `config` when the camera is made; it is not simulation state.
    floor: Vec<u8>,
}

impl Camera {
    /// Creates a camera, tabulating its floor shades.
    pub fn new(config: CameraConfig) -> Camera {
        let h = config.height;
        let mut floor = Vec::with_capacity((h + 1) * h);
        for bot_row in 0..=h {
            for row in 0..h {
                // Floor: nearer rows (lower on screen) brighter.
                let t = (row as f64 - bot_row as f64 + 1.0) / (h as f64 - bot_row as f64 + 1.0);
                floor.push((40.0 + 50.0 * t) as u8);
            }
        }
        Camera { config, floor }
    }

    /// Renders the view from `pos` at heading `yaw` into an [`Image`].
    ///
    /// The camera is assumed level (stabilized gimbal); each column casts
    /// one horizontal ray over the FOV, and the column is filled
    /// doom-style: sky above the projected wall top, shaded wall, floor
    /// below.
    pub fn render(&self, world: &World, pos: Vec3, yaw: f64) -> Image {
        let cfg = &self.config;
        let mut pixels = vec![0; cfg.width * cfg.height];
        let origin = P2::new(pos.x, pos.y);
        let eye_height = pos.z.max(0.2);
        let half_fov = cfg.fov * 0.5;
        // Vertical FOV matches horizontal scaled by aspect (square here).
        let v_half_fov = half_fov * cfg.height as f64 / cfg.width as f64;

        for col in 0..cfg.width {
            // Column angle across the FOV, left edge = +half_fov (left of view).
            let frac = (col as f64 + 0.5) / cfg.width as f64; // 0..1 left->right
            let angle = yaw + half_fov - frac * cfg.fov;
            let dist = world
                .raycast(origin, angle)
                .unwrap_or(cfg.max_depth)
                .min(cfg.max_depth);
            // Correct fisheye: perpendicular distance.
            let perp = (dist * (angle - yaw).cos()).max(0.05);

            // Projected rows of wall top and bottom.
            let wall_top_angle = ((world.wall_height() - eye_height) / perp).atan();
            let wall_bot_angle = (-eye_height / perp).atan();
            let row_of = |a: f64| -> f64 {
                // +v_half_fov (up) maps to row 0.
                (v_half_fov - a) / (2.0 * v_half_fov) * cfg.height as f64
            };
            let top_row = row_of(wall_top_angle).max(0.0) as usize;
            let bot_row = row_of(wall_bot_angle).clamp(0.0, cfg.height as f64) as usize;

            // Wall shading decays with distance; sky light, floor from the
            // table (mid-dark with a gradient for depth cues).
            let wall_shade = (220.0 * (1.0 - (dist / cfg.max_depth)).powf(1.2)).max(16.0) as u8;
            // Three runs down the column: sky `[0, t)`, wall `[t, b)` and
            // floor `[b, h)`. A wall top below the image makes the whole
            // column sky; a wall bottom above the top leaves no wall.
            let (w, h) = (cfg.width, cfg.height);
            let t = top_row.min(h);
            let b = bot_row.max(t);
            for row in 0..t {
                pixels[row * w + col] = 235;
            }
            for row in t..b {
                pixels[row * w + col] = wall_shade;
            }
            let floor = &self.floor[bot_row * h..][..h];
            for (row, &shade) in floor.iter().enumerate().skip(b) {
                pixels[row * w + col] = shade;
            }
        }
        Image::from_bytes(cfg.width, cfg.height, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn image_accessors() {
        let mut img = Image::black(4, 3);
        img.set(2, 1, 99);
        assert_eq!(img.get(2, 1), 99);
        assert_eq!(img.bytes().len(), 12);
        let bytes = img.clone().into_bytes();
        let back = Image::from_bytes(4, 3, bytes);
        assert_eq!(back, img);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        Image::black(2, 2).get(2, 0);
    }

    #[test]
    fn render_centered_view_is_symmetric() {
        let world = World::tunnel();
        let cfg = CameraConfig::default();
        let img = Camera::new(cfg).render(&world, Vec3::new(5.0, 0.0, 1.0), 0.0);
        // A centered, axis-aligned view of a symmetric tunnel renders
        // left/right mirror-symmetric columns.
        for row in 0..cfg.height {
            for col in 0..cfg.width / 2 {
                let l = img.get(row, col);
                let r = img.get(row, cfg.width - 1 - col);
                assert!(
                    (l as i16 - r as i16).abs() <= 1,
                    "asymmetry at ({row},{col}): {l} vs {r}"
                );
            }
        }
    }

    #[test]
    fn render_offset_view_is_asymmetric() {
        let world = World::tunnel();
        let cfg = CameraConfig::default();
        // Near the left wall: the left half of the view is much closer
        // (brighter walls, taller columns) than the right half.
        let img = Camera::new(cfg).render(&world, Vec3::new(5.0, 1.0, 1.0), 0.0);
        let mid = cfg.height / 2;
        let left_mean: f64 = (0..cfg.width / 4)
            .map(|c| img.get(mid, c) as f64)
            .sum::<f64>()
            / (cfg.width / 4) as f64;
        let right_mean: f64 = (3 * cfg.width / 4..cfg.width)
            .map(|c| img.get(mid, c) as f64)
            .sum::<f64>()
            / (cfg.width / 4) as f64;
        assert!(
            left_mean > right_mean + 10.0,
            "left {left_mean} vs right {right_mean}"
        );
    }

    #[test]
    fn closer_walls_render_brighter() {
        let world = World::tunnel();
        let cfg = CameraConfig::default();
        let mid_row = cfg.height / 2;
        // Looking directly at the left wall from two distances.
        let camera = Camera::new(cfg);
        let near = camera.render(
            &world,
            Vec3::new(5.0, 1.0, 1.0),
            std::f64::consts::FRAC_PI_2,
        );
        let far = camera.render(
            &world,
            Vec3::new(5.0, -1.0, 1.0),
            std::f64::consts::FRAC_PI_2,
        );
        let c = cfg.width / 2;
        assert!(near.get(mid_row, c) > far.get(mid_row, c));
    }
}
