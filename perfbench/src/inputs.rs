//! Seeded workload inputs. The benchmark generates every request list,
//! arrival instant and sweep shape itself from the workload seed and hands
//! the program only the finished `RoutineRequest`s and instants: the same
//! seed always gives the same inputs.

use cocopelia_core::{ProblemSpec, SystemProfile};
use cocopelia_gpusim::SimTime;
use cocopelia_hostblas::Dtype;
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DeviceMatrix, DeviceVector, DotRequest, GemmRequest, GemvRequest,
    MatOperand, RoutineRequest, RuntimeError, SharedMat, SharedVec, TileChoice, VecOperand,
};

/// splitmix64: tiny, seedable, and dependency-free.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so the request order
    /// and the arrival gaps of one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.unit_open() * n as f64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Shared-operand keys the small serving mix cycles over.
pub const KEYS: usize = 16;

/// Routines of the small serving mix, in cycle order.
const SMALL_MIX: [&str; 4] = [
    "dgemm 512^3 T=256",
    "daxpy 65536",
    "dgemv 512^2",
    "ddot 65536",
];

/// One request of the small serving mix: routine `r` of [`SMALL_MIX`] on
/// shared-operand key `k`, with a flow-time budget of `deadline` seconds.
/// The key and the budget do not change the request's predicted time.
fn small_request(r: usize, k: usize, deadline: f64) -> RoutineRequest {
    let ghost_v = |len| VecOperand::HostGhost { len };
    match r {
        0 => GemmRequest::<f64>::new(
            SharedMat::new(format!("A{k}"), 512, 512),
            SharedMat::new(format!("B{k}"), 512, 512),
            MatOperand::HostGhost {
                rows: 512,
                cols: 512,
            },
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(256))
        .deadline_secs(deadline)
        .into(),
        1 => AxpyRequest::<f64>::new(SharedVec::new(format!("X{k}"), 65536), ghost_v(65536))
            .alpha(1.0)
            .deadline_secs(deadline)
            .into(),
        2 => GemvRequest::<f64>::new(
            SharedMat::new(format!("A{k}"), 512, 512),
            ghost_v(512),
            ghost_v(512),
        )
        .alpha(1.0)
        .beta(1.0)
        .deadline_secs(deadline)
        .into(),
        _ => DotRequest::<f64>::new(
            SharedVec::new(format!("X{k}"), 65536),
            SharedVec::new(format!("Y{k}"), 65536),
        )
        .deadline_secs(deadline)
        .into(),
    }
}

/// The time `profile` predicts for each routine of the small mix alone,
/// in [`SMALL_MIX`] order: its recommended model at its fixed tile or the
/// auto-selected one, with its shared operands resident.
pub fn small_mix_service(profile: &SystemProfile) -> Result<[f64; SMALL_MIX.len()], String> {
    let mut out = [0.0; SMALL_MIX.len()];
    for (r, service) in out.iter_mut().enumerate() {
        let req = small_request(r, 0, 0.0);
        let tile = match req.tile_choice() {
            TileChoice::Fixed(t) => Some(t),
            _ => None,
        };
        *service = profile
            .predict_offload(&req.problem_spec(), None, tile)
            .ok_or_else(|| format!("no prediction for {}", SMALL_MIX[r]))?
            .total;
    }
    Ok(out)
}

/// The flow the library's predictions promise each request of a stream:
/// its own predicted time after the predicted work still queued ahead of
/// it, spread evenly over the pool's devices (a fluid FIFO queue fed by
/// the predictions).
#[derive(Debug, Clone)]
pub struct FlowQuote {
    devices: f64,
    backlog: f64,
    last: f64,
}

impl FlowQuote {
    pub fn new(devices: usize) -> Self {
        FlowQuote {
            devices: devices as f64,
            backlog: 0.0,
            last: 0.0,
        }
    }

    /// The quoted flow, in seconds, of a request arriving at `at` seconds
    /// (non-decreasing) with predicted time `service`.
    pub fn next(&mut self, at: f64, service: f64) -> f64 {
        self.backlog = (self.backlog - self.devices * (at - self.last)).max(0.0);
        self.last = at;
        let quote = self.backlog / self.devices + service;
        self.backlog += service;
        quote
    }
}

/// `n` requests of the small serving mix in a seeded order, each on a
/// seeded one of [`KEYS`] shared-operand keys. `budget` is called in
/// submission order with each request's position and its routine's index
/// into [`SMALL_MIX`], and returns the request's flow-time budget. The mix is balanced to within `n / 128`
/// requests: dgemm, which dominates the work, appears `n / 4` times plus
/// a seeded offset in `±n / 128`, and the three small routines share the
/// rest evenly.
pub fn small_mix(
    n: usize,
    seed: u64,
    mut budget: impl FnMut(usize, usize) -> f64,
) -> Vec<RoutineRequest> {
    let mut rng = Rng::new(seed, 1);
    let jitter = n / 128;
    let gemms = (n / 4 + rng.below(2 * jitter + 1))
        .saturating_sub(jitter)
        .min(n);
    let mut order: Vec<usize> = (0..n)
        .map(|i| if i < gemms { 0 } else { 1 + (i - gemms) % 3 })
        .collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let key = rng.below(KEYS);
            small_request(r, key, budget(i, r))
        })
        .collect()
}

/// Names of the small mix's routines, for the printed workload summary.
pub fn small_mix_names() -> &'static [&'static str] {
    &SMALL_MIX
}

/// The auto-tile shapes of the small mix (its dgemm runs at a fixed T)
/// as single-device shapes, with the shared operands cold or resident.
pub fn small_mix_auto_shapes(resident: bool) -> Vec<Shape> {
    let shape = |routine, dims| Shape {
        testbed: 0,
        routine,
        dims,
        resident,
    };
    vec![
        shape(Routine::Daxpy, [65536, 0, 0]),
        shape(Routine::Dgemv, [512, 512, 0]),
        shape(Routine::Ddot, [65536, 0, 0]),
    ]
}

/// `n` seeded Poisson arrival instants at `rate_hz` requests per virtual
/// second, non-decreasing from the drain start.
pub fn poisson_arrivals(n: usize, rate_hz: f64, seed: u64) -> Vec<SimTime> {
    let mut rng = Rng::new(seed, 2);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.unit_open().ln() / rate_hz;
            SimTime::from_secs_f64(t)
        })
        .collect()
}

/// A routine of the paper-size sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routine {
    /// Double-precision gemm.
    Dgemm,
    /// Single-precision gemm.
    Sgemm,
    /// Double-precision axpy.
    Daxpy,
    /// Double-precision dot.
    Ddot,
    /// Double-precision gemv.
    Dgemv,
}

/// One shape of the paper-size sweep on one testbed.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Index into the sweep's testbeds (0 = Testbed I, 1 = Testbed II).
    pub testbed: usize,
    /// The routine.
    pub routine: Routine,
    /// `M N K` for gemm, `M N` for gemv, `N` for level 1 (unused slots 0).
    pub dims: [usize; 3],
    /// The operands the serving mix shares — `A` of gemm and gemv, `x` of
    /// axpy, `x` and `y` of dot — start resident on the device (uploaded
    /// before the call, outside the measured host time).
    pub resident: bool,
}

/// Device copies of a shape's resident operands.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resident {
    a: Option<DeviceMatrix>,
    x: Option<DeviceVector>,
    y: Option<DeviceVector>,
}

fn mat<T>(dev: Option<DeviceMatrix>, rows: usize, cols: usize) -> MatOperand<T> {
    dev.map_or(MatOperand::HostGhost { rows, cols }, MatOperand::Device)
}

fn vector<T>(dev: Option<DeviceVector>, len: usize) -> VecOperand<T> {
    dev.map_or(VecOperand::HostGhost { len }, VecOperand::Device)
}

impl Shape {
    /// Uploads the operands [`resident`](Self::resident) places on the
    /// device of `ctx`.
    pub fn upload(&self, ctx: &mut Cocopelia) -> Result<Resident, RuntimeError> {
        let mut r = Resident::default();
        if !self.resident {
            return Ok(r);
        }
        let [m, n, k] = self.dims;
        match self.routine {
            Routine::Dgemm => r.a = Some(ctx.upload_ghost_matrix(Dtype::F64, m, k)?),
            Routine::Sgemm => r.a = Some(ctx.upload_ghost_matrix(Dtype::F32, m, k)?),
            Routine::Dgemv => r.a = Some(ctx.upload_ghost_matrix(Dtype::F64, m, n)?),
            Routine::Daxpy => r.x = Some(ctx.upload_ghost_vector(Dtype::F64, m)?),
            Routine::Ddot => {
                r.x = Some(ctx.upload_ghost_vector(Dtype::F64, m)?);
                r.y = Some(ctx.upload_ghost_vector(Dtype::F64, m)?);
            }
        }
        Ok(r)
    }

    /// Frees what [`upload`](Self::upload) placed on the device.
    pub fn free(ctx: &mut Cocopelia, r: Resident) -> Result<(), RuntimeError> {
        if let Some(a) = r.a {
            ctx.free_matrix(a)?;
        }
        for v in [r.x, r.y].into_iter().flatten() {
            ctx.free_vector(v)?;
        }
        Ok(())
    }

    /// The request at tile choice `tile`, over the device copies in `r`.
    pub fn request(&self, tile: TileChoice, r: Resident) -> RoutineRequest {
        let [m, n, k] = self.dims;
        match self.routine {
            Routine::Dgemm => {
                GemmRequest::<f64>::new(mat(r.a, m, k), mat(None, k, n), mat(None, m, n))
                    .alpha(1.0)
                    .beta(1.0)
                    .tile(tile)
                    .into()
            }
            Routine::Sgemm => {
                GemmRequest::<f32>::new(mat(r.a, m, k), mat(None, k, n), mat(None, m, n))
                    .alpha(1.0)
                    .beta(1.0)
                    .tile(tile)
                    .into()
            }
            Routine::Daxpy => AxpyRequest::<f64>::new(vector(r.x, m), vector(None, m))
                .alpha(1.0)
                .tile(tile)
                .into(),
            Routine::Ddot => DotRequest::<f64>::new(vector(r.x, m), vector(r.y, m))
                .tile(tile)
                .into(),
            Routine::Dgemv => {
                GemvRequest::<f64>::new(mat(r.a, m, n), vector(None, n), vector(None, m))
                    .alpha(1.0)
                    .beta(1.0)
                    .tile(tile)
                    .into()
            }
        }
    }

    /// The problem with every operand on the host: its dimensions fix the
    /// admissible tile grid and the prediction probes.
    pub fn host_problem(&self) -> ProblemSpec {
        self.request(TileChoice::Auto, Resident::default())
            .problem_spec()
    }

    /// Short label, e.g. `i dgemm 8448x8448x8448 resident`.
    pub fn label(&self) -> String {
        let tb = ["I", "II"][self.testbed];
        let dims: Vec<String> = self
            .dims
            .iter()
            .filter(|d| **d > 0)
            .map(usize::to_string)
            .collect();
        let loc = if self.resident { " resident" } else { "" };
        format!("{tb} {:?} {}{loc}", self.routine, dims.join("x")).to_lowercase()
    }
}

/// The paper's gemm evaluation points: square and rectangular, 4096–16384.
const GEMM_DIMS: [[usize; 3]; 6] = [
    [4096, 4096, 4096],
    [8192, 8192, 8192],
    [16384, 16384, 16384],
    [16384, 4096, 4096],
    [4096, 4096, 16384],
    [8192, 16384, 4096],
];

/// The paper's evaluation shapes on both testbeds: dgemm and sgemm at
/// [`GEMM_DIMS`], each all-host and with `A` device-resident; daxpy and
/// ddot at 2^22–2^28 and dgemv with matching matrix sizes, each grown by
/// a seeded 0–12.5%. The gemm points stay fixed: tile choice is a step
/// function of the dims, so jittering them moves the mean tile regret of
/// 48 gemm shapes by ±15% from seed to seed.
pub fn sweep_shapes(seed: u64) -> Vec<Shape> {
    let mut rng = Rng::new(seed, 3);
    let mut grow = |d: usize, step: usize| d + step * rng.below(d / step / 8 + 1);
    let mut shapes = Vec::new();
    for testbed in 0..2 {
        for routine in [Routine::Dgemm, Routine::Sgemm] {
            for dims in &GEMM_DIMS {
                for resident in [false, true] {
                    shapes.push(Shape {
                        testbed,
                        routine,
                        dims: *dims,
                        resident,
                    });
                }
            }
        }
        for log2 in [22, 24, 26, 28] {
            for routine in [Routine::Daxpy, Routine::Ddot] {
                shapes.push(Shape {
                    testbed,
                    routine,
                    dims: [grow(1 << log2, 1 << 16), 0, 0],
                    resident: false,
                });
            }
            let side = grow(1 << (log2 / 2), 256);
            shapes.push(Shape {
                testbed,
                routine: Routine::Dgemv,
                dims: [side, side, 0],
                resident: false,
            });
        }
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded() {
        let names = |s| {
            small_mix(512, s, |_, _| 1.0)
                .iter()
                .map(|r| format!("{}{:?}", r.routine(), r.shared_keys()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
        for seed in 0..32 {
            let mix = small_mix(512, seed, |_, _| 1.0);
            let gemms = mix.iter().filter(|r| r.routine() == "dgemm").count();
            assert!((124..=132).contains(&gemms), "{gemms} dgemm of 512");
            for routine in ["daxpy", "dgemv", "ddot"] {
                let n = mix.iter().filter(|r| r.routine() == routine).count();
                assert!(n.abs_diff((512 - gemms) / 3) <= 1, "{n} {routine}");
            }
        }
        assert_eq!(
            poisson_arrivals(8, 5000.0, 3),
            poisson_arrivals(8, 5000.0, 3)
        );
        assert_ne!(
            poisson_arrivals(8, 5000.0, 3),
            poisson_arrivals(8, 5000.0, 4)
        );
        let mut closed = FlowQuote::new(2);
        let quotes: Vec<f64> = (0..5).map(|_| closed.next(0.0, 1.0)).collect();
        assert_eq!(quotes, [1.0, 1.5, 2.0, 2.5, 3.0]);
        let mut open = FlowQuote::new(2);
        assert_eq!(open.next(0.0, 4.0), 4.0);
        assert_eq!(open.next(1.0, 1.0), 2.0);
        assert_eq!(open.next(10.0, 1.0), 1.0);
        let dims = |s| sweep_shapes(s).iter().map(|s| s.dims).collect::<Vec<_>>();
        assert_eq!(dims(1), dims(1));
        assert_ne!(dims(1), dims(2));
    }
}
