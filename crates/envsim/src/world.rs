//! Corridor environments and geometric queries.
//!
//! Two environments are modeled after Section 4.2.3 / Figure 9, and a
//! third extends them:
//!
//! * `tunnel` — a straight corridor 50 m long and 3.2 m wide (boundaries at
//!   y = ±1.6 m, as in Figure 10).
//! * `s-shape` — an "S" shaped corridor of ~80 m; the mission is completed
//!   upon reaching x = 80 (Figure 11). The map is wider (6 m) but requires
//!   constant correction.
//! * `slalom` — a straight 60 m corridor with pillars alternating sides.
//!
//! Worlds are built from 2-D wall segments extruded to a fixed height, plus
//! a centerline polyline used for ground-truth perception queries (lateral
//! offset and heading error relative to the trail).
//!
//! The walls are indexed by a uniform grid built once with the world, whose
//! cell edge is the median wall length. [`World::raycast`] walks the cells
//! along the ray and [`World::collides`] reads the cells under the body's
//! bounding box; both return exactly what a scan over every wall returns.
//! The grid is derived from the walls, so it is never snapshotted: a
//! resumed mission rebuilds its `World` from the mission config.

use rose_sim_core::math::{clamp, wrap_angle, Vec3};
use std::fmt;

/// A 2-D point in the horizontal plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct P2 {
    /// X coordinate (along the corridor).
    pub x: f64,
    /// Y coordinate (lateral).
    pub y: f64,
}

impl P2 {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> P2 {
        P2 { x, y }
    }

    fn sub(self, o: P2) -> P2 {
        P2::new(self.x - o.x, self.y - o.y)
    }

    fn dot(self, o: P2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

/// A wall: a 2-D segment extruded vertically from the floor to `height`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Segment start.
    pub a: P2,
    /// Segment end.
    pub b: P2,
    /// Wall height in meters.
    pub height: f64,
}

impl Wall {
    /// Creates a wall segment with the given height.
    pub fn new(a: P2, b: P2, height: f64) -> Wall {
        Wall { a, b, height }
    }

    /// Distance from `p` to the closest point of the segment, and that point.
    pub fn closest_point(&self, p: P2) -> (f64, P2) {
        let ab = self.b.sub(self.a);
        let len_sq = ab.dot(ab);
        let t = if len_sq == 0.0 {
            0.0
        } else {
            clamp(p.sub(self.a).dot(ab) / len_sq, 0.0, 1.0)
        };
        let q = P2::new(self.a.x + ab.x * t, self.a.y + ab.y * t);
        (p.sub(q).norm(), q)
    }

    /// Ray–segment intersection: distance along the ray from `origin` in
    /// direction `(dx, dy)` (unit), or `None` if the ray misses.
    pub fn raycast(&self, origin: P2, dx: f64, dy: f64) -> Option<f64> {
        // Solve origin + t*d = a + u*(b-a), t >= 0, u in [0,1].
        let ex = self.b.x - self.a.x;
        let ey = self.b.y - self.a.y;
        let denom = dx * ey - dy * ex;
        if denom.abs() < 1e-12 {
            return None; // parallel
        }
        let ox = self.a.x - origin.x;
        let oy = self.a.y - origin.y;
        let t = (ox * ey - oy * ex) / denom;
        let u = (ox * dy - oy * dx) / denom;
        if t >= 0.0 && (0.0..=1.0).contains(&u) {
            Some(t)
        } else {
            None
        }
    }
}

/// Which built-in environment a [`World`] was generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorldKind {
    /// Straight 50 m × 3.2 m corridor.
    Tunnel,
    /// "S" shaped ~80 m corridor.
    SShape,
    /// Straight 60 m corridor with pillar obstacles forcing a slalom
    /// (extension environment stressing the depth sensor and the
    /// dynamic runtime's deadline switching).
    Slalom,
}

rose_sim_core::snap_tag!(WorldKind { Tunnel = 0, SShape = 1, Slalom = 2 });

impl fmt::Display for WorldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldKind::Tunnel => write!(f, "tunnel"),
            WorldKind::SShape => write!(f, "s-shape"),
            WorldKind::Slalom => write!(f, "slalom"),
        }
    }
}

/// Ground-truth relation of a pose to the corridor centerline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrailQuery {
    /// Signed lateral offset from the centerline in meters. Positive means
    /// the UAV is to the **left** of the trail (trail appears to its right).
    pub lateral_offset: f64,
    /// Signed heading error in radians relative to the local trail tangent.
    /// Positive means the UAV points **left** of the trail direction.
    pub heading_error: f64,
    /// Arc-length progress along the centerline in meters.
    pub progress: f64,
    /// Local corridor half-width at this progress.
    pub half_width: f64,
}

/// Padding, in meters, on each wall's bounding box when the wall is listed
/// in the grid. It is far wider than the rounding error of a computed hit
/// or closest point, so a wall is listed in every cell such a point can be
/// placed in, and a query that reads those cells meets the wall.
const GRID_PAD: f64 = 1e-6;

/// A uniform grid over a world's walls: each cell lists every wall whose
/// padded bounding box overlaps it.
#[derive(Debug, Clone, PartialEq)]
struct WallGrid {
    /// Lower corner of cell (0, 0): the walls' minimum x and y.
    min: P2,
    /// Cell edge in meters: the median wall length.
    cell: f64,
    /// Cells along x.
    nx: usize,
    /// Cells along y.
    ny: usize,
    /// Cell `iy * nx + ix` lists `walls[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Wall indices, ascending within each cell.
    walls: Vec<u32>,
}

impl WallGrid {
    fn new(walls: &[Wall]) -> WallGrid {
        let mut min = P2::new(f64::INFINITY, f64::INFINITY);
        let mut max = P2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in walls.iter().flat_map(|w| [w.a, w.b]) {
            min = P2::new(min.x.min(p.x), min.y.min(p.y));
            max = P2::new(max.x.max(p.x), max.y.max(p.y));
        }
        let mut lengths: Vec<f64> = walls.iter().map(|w| w.b.sub(w.a).norm()).collect();
        lengths.sort_by(f64::total_cmp);
        let cell = lengths
            .get(lengths.len() / 2)
            .copied()
            .filter(|&median| median > 0.0)
            .expect("a world's median wall has a positive length");
        let cells = |extent: f64| ((extent / cell).ceil() as usize).max(1);
        let (nx, ny) = (cells(max.x - min.x), cells(max.y - min.y));
        let mut grid = WallGrid {
            min,
            cell,
            nx,
            ny,
            offsets: Vec::new(),
            walls: Vec::new(),
        };
        // The cells a wall's padded bounding box overlaps.
        let cells_of = |w: &Wall| {
            let xs = grid.span(w.a.x.min(w.b.x) - GRID_PAD, w.a.x.max(w.b.x) + GRID_PAD, 0);
            let ys = grid.span(w.a.y.min(w.b.y) - GRID_PAD, w.a.y.max(w.b.y) + GRID_PAD, 1);
            ys.flat_map(move |iy| xs.clone().map(move |ix| iy * nx + ix))
        };
        // Count each cell's walls, then fill the flat list in wall order.
        let mut offsets = vec![0u32; nx * ny + 1];
        for c in walls.iter().flat_map(cells_of) {
            offsets[c + 1] += 1;
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0; offsets[nx * ny] as usize];
        for (i, w) in walls.iter().enumerate() {
            for c in cells_of(w) {
                ids[next[c] as usize] = i as u32;
                next[c] += 1;
            }
        }
        grid.offsets = offsets;
        grid.walls = ids;
        grid
    }

    /// The column (`axis` 0) or row (`axis` 1) holding coordinate `v`,
    /// clamped into the grid. It truncates after a sign check because
    /// `f64::floor` is a libm call on the baseline x86-64 target.
    fn index(&self, v: f64, axis: usize) -> usize {
        let (lo, n) = if axis == 0 {
            (self.min.x, self.nx)
        } else {
            (self.min.y, self.ny)
        };
        let f = (v - lo) / self.cell;
        if f >= 0.0 {
            (f as usize).min(n - 1)
        } else {
            0
        }
    }

    /// The columns or rows overlapping `[lo, hi]`, clamped into the grid.
    fn span(&self, lo: f64, hi: f64, axis: usize) -> std::ops::RangeInclusive<usize> {
        self.index(lo, axis)..=self.index(hi, axis)
    }

    /// The walls listed in cells `first..=last` (consecutive in one row).
    fn cells(&self, first: usize, last: usize) -> &[u32] {
        &self.walls[self.offsets[first] as usize..self.offsets[last + 1] as usize]
    }

    /// True if the grid is a single cell, which lists every wall.
    fn is_one_cell(&self) -> bool {
        self.nx * self.ny == 1
    }
}

/// The nearer of `best` and every hit of the walls `ids` along the ray.
fn nearest_hit(
    walls: &[Wall],
    ids: &[u32],
    origin: P2,
    (dx, dy): (f64, f64),
    best: Option<f64>,
) -> Option<f64> {
    ids.iter()
        .filter_map(|&i| walls[i as usize].raycast(origin, dx, dy))
        .fold(best, |best, t| match best {
            Some(b) if b.total_cmp(&t).is_le() => Some(b),
            _ => Some(t),
        })
}

/// The ray's step along one axis from cell `i`: the index step, the ray
/// distance to the cell's exit boundary, and the ray distance per cell.
fn dda_axis(origin: f64, d: f64, lo: f64, cell: f64, i: usize) -> (isize, f64, f64) {
    if d > 0.0 {
        (1, (lo + (i + 1) as f64 * cell - origin) / d, cell / d)
    } else if d < 0.0 {
        (-1, (lo + i as f64 * cell - origin) / d, -cell / d)
    } else {
        (0, f64::INFINITY, f64::INFINITY)
    }
}

/// An environment: walls, a centerline, and mission geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    kind: WorldKind,
    walls: Vec<Wall>,
    /// Index over `walls`, derived from them when the world is made.
    grid: WallGrid,
    /// Centerline polyline (ordered along the corridor).
    centerline: Vec<P2>,
    /// Cumulative arc length at each centerline vertex.
    arclen: Vec<f64>,
    half_width: f64,
    /// Mission is complete when the UAV's x exceeds this.
    goal_x: f64,
    wall_height: f64,
}

impl World {
    /// The `tunnel` environment: straight, 50 m long, 3.2 m wide
    /// (boundaries at y = ±1.6 m), 3 m tall walls.
    pub fn tunnel() -> World {
        let h = 3.0;
        let half = 1.6;
        let len = 50.0;
        // Walls extend behind the start so an angled UAV cannot escape.
        let x0 = -5.0;
        let walls = vec![
            Wall::new(P2::new(x0, half), P2::new(len + 5.0, half), h),
            Wall::new(P2::new(x0, -half), P2::new(len + 5.0, -half), h),
            // Back wall behind the spawn point.
            Wall::new(P2::new(x0, -half), P2::new(x0, half), h),
        ];
        let centerline = vec![P2::new(0.0, 0.0), P2::new(len, 0.0)];
        World::from_parts(WorldKind::Tunnel, walls, centerline, half, len, h)
    }

    /// The `s-shape` environment: an "S" curve roughly 80 m of arc length
    /// laid out along x ∈ [0, 80], 6 m wide. Mission completes at x = 80.
    pub fn s_shape() -> World {
        let h = 3.0;
        let half = 3.0;
        let goal = 80.0;
        let amplitude = 5.0;
        // Centerline y = A * sin(pi * x / 40): a full S over [0, 80].
        let mut centerline = Vec::new();
        let steps = 160;
        for i in 0..=steps {
            let x = goal * i as f64 / steps as f64;
            let y = amplitude * (std::f64::consts::PI * x / 40.0).sin();
            centerline.push(P2::new(x, y));
        }
        // Offset walls: sampled normals of the centerline.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &c) in centerline.iter().enumerate() {
            let x = goal * i as f64 / steps as f64;
            let dy_dx =
                amplitude * std::f64::consts::PI / 40.0 * (std::f64::consts::PI * x / 40.0).cos();
            let norm = (1.0 + dy_dx * dy_dx).sqrt();
            // Unit normal (pointing left of travel).
            let nx = -dy_dx / norm;
            let ny = 1.0 / norm;
            left.push(P2::new(c.x + nx * half, c.y + ny * half));
            right.push(P2::new(c.x - nx * half, c.y - ny * half));
        }
        let mut walls = Vec::new();
        for w in left.windows(2).chain(right.windows(2)) {
            walls.push(Wall::new(w[0], w[1], h));
        }
        // Straight entry section behind the spawn point, capped well clear
        // of the UAV's starting position.
        let entry_l = P2::new(-4.0, half);
        let entry_r = P2::new(-4.0, -half);
        walls.push(Wall::new(entry_l, left[0], h));
        walls.push(Wall::new(entry_r, right[0], h));
        walls.push(Wall::new(entry_l, entry_r, h));
        World::from_parts(WorldKind::SShape, walls, centerline, half, goal, h)
    }

    /// The `slalom` environment: a straight 60 m corridor, 5 m wide, with
    /// square pillars alternating sides every 12 m; the trail weaves
    /// around them.
    pub fn slalom() -> World {
        let h = 3.0;
        let half = 2.5;
        let goal = 60.0;
        let mut walls = vec![
            Wall::new(P2::new(-4.0, half), P2::new(goal + 5.0, half), h),
            Wall::new(P2::new(-4.0, -half), P2::new(goal + 5.0, -half), h),
            Wall::new(P2::new(-4.0, -half), P2::new(-4.0, half), h),
        ];
        // Pillars at x = 12, 24, 36, 48, alternating sides; the trail
        // swings to the opposite side of each pillar.
        let mut centerline = vec![P2::new(0.0, 0.0), P2::new(6.0, 0.0)];
        for (i, px) in [12.0f64, 24.0, 36.0, 48.0].iter().enumerate() {
            let side = if i % 2 == 0 { -1.0 } else { 1.0 };
            let py = side * 0.8;
            let r = 0.4; // pillar half-size
            walls.push(Wall::new(
                P2::new(px - r, py - r),
                P2::new(px + r, py - r),
                h,
            ));
            walls.push(Wall::new(
                P2::new(px + r, py - r),
                P2::new(px + r, py + r),
                h,
            ));
            walls.push(Wall::new(
                P2::new(px + r, py + r),
                P2::new(px - r, py + r),
                h,
            ));
            walls.push(Wall::new(
                P2::new(px - r, py + r),
                P2::new(px - r, py - r),
                h,
            ));
            // Trail swings to the free side at the pillar, back to center
            // midway to the next.
            centerline.push(P2::new(*px, -side * 1.1));
            centerline.push(P2::new(px + 6.0, 0.0));
        }
        centerline.push(P2::new(goal, 0.0));
        World::from_parts(WorldKind::Slalom, walls, centerline, half, goal, h)
    }

    /// Builds a world for the given kind.
    pub fn of_kind(kind: WorldKind) -> World {
        match kind {
            WorldKind::Tunnel => World::tunnel(),
            WorldKind::SShape => World::s_shape(),
            WorldKind::Slalom => World::slalom(),
        }
    }

    fn from_parts(
        kind: WorldKind,
        walls: Vec<Wall>,
        centerline: Vec<P2>,
        half_width: f64,
        goal_x: f64,
        wall_height: f64,
    ) -> World {
        assert!(centerline.len() >= 2, "centerline needs >= 2 points");
        let mut arclen = Vec::with_capacity(centerline.len());
        let mut acc = 0.0;
        arclen.push(0.0);
        for w in centerline.windows(2) {
            acc += w[1].sub(w[0]).norm();
            arclen.push(acc);
        }
        World {
            kind,
            grid: WallGrid::new(&walls),
            walls,
            centerline,
            arclen,
            half_width,
            goal_x,
            wall_height,
        }
    }

    /// Which environment this is.
    pub fn kind(&self) -> WorldKind {
        self.kind
    }

    /// The wall list.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Corridor half-width in meters.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// Wall height in meters.
    pub fn wall_height(&self) -> f64 {
        self.wall_height
    }

    /// X coordinate at which the mission is complete.
    pub fn goal_x(&self) -> f64 {
        self.goal_x
    }

    /// Total centerline arc length.
    pub fn trail_length(&self) -> f64 {
        *self.arclen.last().expect("nonempty centerline")
    }

    /// True once `pos` has passed the goal plane.
    pub fn mission_complete(&self, pos: Vec3) -> bool {
        pos.x >= self.goal_x
    }

    /// Distance from `p` to the nearest wall, and the push-out direction
    /// (unit vector from the wall's closest point towards `p`).
    ///
    /// A scan over every wall, not a grid query: it runs only while the UAV
    /// is in wall contact.
    pub fn nearest_wall(&self, p: P2) -> (f64, P2) {
        let mut best = (f64::INFINITY, P2::default());
        for w in &self.walls {
            let (d, q) = w.closest_point(p);
            if d < best.0 {
                let dir = if d > 1e-9 {
                    P2::new((p.x - q.x) / d, (p.y - q.y) / d)
                } else {
                    P2::new(0.0, 0.0)
                };
                best = (d, dir);
            }
        }
        best
    }

    /// Casts a horizontal ray from `origin` at world `heading` radians and
    /// returns the distance to the first wall, or `None` on a miss.
    ///
    /// The ray walks the wall grid cell by cell (2-D DDA) and stops once
    /// its nearest hit is no farther than where it leaves the current cell,
    /// or once it leaves the grid. A hit point lies in a cell the ray
    /// crosses and every cell lists the walls near it, so the minimum
    /// (under `total_cmp`) is the one a scan over every wall finds. An
    /// origin outside the grid scans.
    pub fn raycast(&self, origin: P2, heading: f64) -> Option<f64> {
        let dir = (heading.cos(), heading.sin());
        let scan = || {
            self.walls
                .iter()
                .filter_map(|w| w.raycast(origin, dir.0, dir.1))
                .min_by(|a, b| a.total_cmp(b))
        };
        let g = &self.grid;
        if g.is_one_cell() {
            return scan();
        }
        let fx = (origin.x - g.min.x) / g.cell;
        let fy = (origin.y - g.min.y) / g.cell;
        // Written so that a NaN origin or direction also scans.
        let inside = fx >= 0.0 && fx < g.nx as f64 && fy >= 0.0 && fy < g.ny as f64;
        if !(inside && dir.0.is_finite() && dir.1.is_finite()) {
            return scan();
        }
        let (mut ix, mut iy) = (fx as usize, fy as usize);
        let (step_x, mut exit_x, delta_x) = dda_axis(origin.x, dir.0, g.min.x, g.cell, ix);
        let (step_y, mut exit_y, delta_y) = dda_axis(origin.y, dir.1, g.min.y, g.cell, iy);
        let mut best = None;
        loop {
            let c = iy * g.nx + ix;
            best = nearest_hit(&self.walls, g.cells(c, c), origin, dir, best);
            // A finite heading has a nonzero cos or sin, so one exit is
            // finite and every pass moves one cell until the ray leaves.
            if best.is_some_and(|b| b <= exit_x.min(exit_y)) {
                return best;
            }
            let (i, n, step) = if exit_x < exit_y {
                exit_x += delta_x;
                (&mut ix, g.nx, step_x)
            } else {
                exit_y += delta_y;
                (&mut iy, g.ny, step_y)
            };
            match i.checked_add_signed(step) {
                Some(next) if next < n => *i = next,
                _ => return best,
            }
        }
    }

    /// Ground-truth trail query for a pose (position + heading).
    ///
    /// Finds the closest centerline point and reports signed lateral offset,
    /// heading error relative to the local tangent, and arc-length progress.
    /// A scan over every centerline segment, not a grid query: it runs once
    /// per camera frame.
    pub fn trail_query(&self, pos: Vec3, yaw: f64) -> TrailQuery {
        let p = P2::new(pos.x, pos.y);
        let mut best_d = f64::INFINITY;
        let mut best = (0usize, 0.0f64); // segment index, parameter t
        for (i, w) in self.centerline.windows(2).enumerate() {
            let seg = Wall::new(w[0], w[1], 0.0);
            let (d, q) = seg.closest_point(p);
            if d < best_d {
                best_d = d;
                let seg_len = w[1].sub(w[0]).norm();
                let t = if seg_len > 0.0 {
                    q.sub(w[0]).norm() / seg_len
                } else {
                    0.0
                };
                best = (i, t);
            }
        }
        let (i, t) = best;
        let a = self.centerline[i];
        let b = self.centerline[i + 1];
        let tangent = b.sub(a);
        let tangent_angle = tangent.y.atan2(tangent.x);
        // Signed offset: positive if p is left of the tangent direction.
        let rel = p.sub(a);
        let cross = tangent.x * rel.y - tangent.y * rel.x;
        let lateral = best_d * cross.signum();
        let seg_len = tangent.norm();
        TrailQuery {
            lateral_offset: lateral,
            heading_error: wrap_angle(yaw - tangent_angle),
            progress: self.arclen[i] + t * seg_len,
            half_width: self.half_width,
        }
    }

    /// True if a UAV of `radius` at `pos` is in contact with a wall (only
    /// walls tall enough to reach `pos.z` count).
    ///
    /// Only the walls listed in the grid cells under the `pos ± radius` box
    /// are tested: a wall closer than `radius` has a point inside that box.
    pub fn collides(&self, pos: Vec3, radius: f64) -> bool {
        let p = P2::new(pos.x, pos.y);
        let touches = |&i: &u32| {
            let w = &self.walls[i as usize];
            pos.z <= w.height && w.closest_point(p).0 < radius
        };
        let g = &self.grid;
        if g.is_one_cell() {
            return g.walls.iter().any(touches);
        }
        // A radius that is not positive touches no wall; `max` keeps its
        // box from turning inside out (and maps NaN to 0).
        let reach = radius.max(0.0);
        let (first, last) = (g.index(p.x - reach, 0), g.index(p.x + reach, 0));
        g.span(p.y - reach, p.y + reach, 1).any(|iy| {
            g.cells(iy * g.nx + first, iy * g.nx + last)
                .iter()
                .any(touches)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunnel_dimensions() {
        let w = World::tunnel();
        assert_eq!(w.kind(), WorldKind::Tunnel);
        assert_eq!(w.half_width(), 1.6);
        assert_eq!(w.goal_x(), 50.0);
        assert!((w.trail_length() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn s_shape_dimensions() {
        let w = World::s_shape();
        assert_eq!(w.goal_x(), 80.0);
        // Arc length of the S exceeds the straight-line 80 m.
        assert!(w.trail_length() > 80.0);
        assert!(w.trail_length() < 100.0);
    }

    #[test]
    fn tunnel_collision_boundaries() {
        let w = World::tunnel();
        let r = 0.3;
        assert!(!w.collides(Vec3::new(10.0, 0.0, 1.0), r));
        assert!(w.collides(Vec3::new(10.0, 1.5, 1.0), r));
        assert!(w.collides(Vec3::new(10.0, -1.5, 1.0), r));
        // Above the walls there is no collision.
        assert!(!w.collides(Vec3::new(10.0, 1.5, 10.0), r));
    }

    #[test]
    fn raycast_straight_ahead_hits_side_wall() {
        let w = World::tunnel();
        // Looking 90 degrees left from the center: wall at 1.6 m.
        let d = w
            .raycast(P2::new(10.0, 0.0), std::f64::consts::FRAC_PI_2)
            .expect("hit");
        assert!((d - 1.6).abs() < 1e-9, "d = {d}");
        // Looking straight down the tunnel: hits the far cap at x=55.
        let d = w.raycast(P2::new(10.0, 0.0), 0.0);
        // Tunnel side walls are parallel to the ray; no cap at the end, so
        // the ray escapes (None) — the depth sensor clamps to max range.
        assert!(d.is_none());
    }

    #[test]
    fn trail_query_tunnel_signs() {
        let w = World::tunnel();
        // 0.5 m left of center, pointing 0.1 rad left.
        let q = w.trail_query(Vec3::new(5.0, 0.5, 1.0), 0.1);
        assert!((q.lateral_offset - 0.5).abs() < 1e-9);
        assert!((q.heading_error - 0.1).abs() < 1e-9);
        assert!((q.progress - 5.0).abs() < 1e-9);
        // Right of center gives a negative offset.
        let q = w.trail_query(Vec3::new(5.0, -0.7, 1.0), -0.2);
        assert!((q.lateral_offset + 0.7).abs() < 1e-9);
        assert!((q.heading_error + 0.2).abs() < 1e-9);
    }

    #[test]
    fn trail_query_s_shape_follows_curve() {
        let w = World::s_shape();
        // A point exactly on the centerline has ~zero offset.
        let x = 20.0;
        let y = 5.0 * (std::f64::consts::PI * x / 40.0).sin();
        let q = w.trail_query(Vec3::new(x, y, 1.0), 0.0);
        assert!(q.lateral_offset.abs() < 0.05, "offset {}", q.lateral_offset);
        assert!(q.progress > x, "progress {} along arc", q.progress);
    }

    #[test]
    fn s_shape_collision_on_outer_wall() {
        let w = World::s_shape();
        // Far outside the corridor: collides (or is beyond a wall, but at
        // the apex y=5+3=8 the wall is at ~8).
        assert!(w.collides(Vec3::new(20.0, 8.0, 1.0), 0.4));
        // Center of corridor at the apex: free.
        assert!(!w.collides(Vec3::new(20.0, 5.0, 1.0), 0.4));
    }

    #[test]
    fn slalom_geometry() {
        let w = World::slalom();
        assert_eq!(w.kind(), WorldKind::Slalom);
        assert_eq!(w.goal_x(), 60.0);
        // Pillar faces around (12, -0.8) block that spot but not the trail
        // side (collision geometry is the pillar's wall segments).
        assert!(w.collides(Vec3::new(12.0, -1.15, 1.0), 0.3));
        assert!(w.collides(Vec3::new(11.5, -0.8, 1.0), 0.3));
        assert!(!w.collides(Vec3::new(12.0, 1.1, 1.0), 0.3));
        // The trail weaves: at the first pillar the centerline is on the
        // positive-y side.
        let q = w.trail_query(Vec3::new(12.0, 1.1, 1.0), 0.0);
        assert!(q.lateral_offset.abs() < 0.2, "offset {}", q.lateral_offset);
        // The depth sensor sees the pillar when heading straight at it.
        let d = w.raycast(P2::new(8.0, -0.8), 0.0).expect("pillar in view");
        assert!((d - 3.6).abs() < 0.1, "distance to pillar face {d}");
    }

    #[test]
    fn mission_complete_at_goal() {
        let w = World::tunnel();
        assert!(!w.mission_complete(Vec3::new(49.9, 0.0, 1.0)));
        assert!(w.mission_complete(Vec3::new(50.0, 0.0, 1.0)));
    }

    #[test]
    fn grid_shape_follows_the_median_wall() {
        // (cells along x, cells along y, walls listed) per world.
        for (world, nx, ny, listed) in [
            (World::tunnel(), 1, 1, 3),
            (World::s_shape(), 159, 30, 785),
            (World::slalom(), 87, 7, 213),
        ] {
            let g = &world.grid;
            assert_eq!(
                (g.nx, g.ny, g.walls.len()),
                (nx, ny, listed),
                "{}",
                world.kind()
            );
            let mut lengths: Vec<f64> = world.walls.iter().map(|w| w.b.sub(w.a).norm()).collect();
            lengths.sort_by(f64::total_cmp);
            assert_eq!(g.cell, lengths[lengths.len() / 2]);
        }
        // The tunnel's one cell lists every wall, in order.
        assert_eq!(World::tunnel().grid.walls, [0, 1, 2]);
    }

    #[test]
    fn wall_raycast_geometry() {
        let wall = Wall::new(P2::new(0.0, -1.0), P2::new(0.0, 1.0), 3.0);
        // Ray from (-2, 0) pointing +x hits at distance 2.
        assert_eq!(wall.raycast(P2::new(-2.0, 0.0), 1.0, 0.0), Some(2.0));
        // Pointing away: miss.
        assert_eq!(wall.raycast(P2::new(-2.0, 0.0), -1.0, 0.0), None);
        // Parallel: miss.
        assert_eq!(wall.raycast(P2::new(-2.0, 0.0), 0.0, 1.0), None);
        // Beyond the segment extent: miss.
        assert_eq!(wall.raycast(P2::new(-2.0, 5.0), 1.0, 0.0), None);
    }
}
