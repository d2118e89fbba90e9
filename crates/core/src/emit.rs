//! The C emitter: one runnable C99 translation unit for a scheduled
//! [`Program`] — the generated code of the paper's Fig. 7, made runnable.
//!
//! The text follows the program exactly: the groups in order; every tile of
//! a tiled group, its precomputed per-stage regions and stores emitted as a
//! static table; each stage's scratchpad at its slot of the packed arena,
//! indexed relative to the tile's region; strided cases in virtual
//! coordinates; reductions as one row-major sweep; sequential scans point by
//! point; and every kernel as straight-line C, one statement per op, each
//! placed in the outermost loop its operands allow. Each semantic is
//! spelled the VM's way (the prelude names its source), so the compiled
//! program is bit-for-bit equal to a single-threaded engine run.
//!
//! `main(argc, argv)` reads the input images as raw `f32` (image order,
//! row-major) from the file `argv[1]`, runs the pipeline `argv[2]` times
//! (default once), writes the live-outs as raw `f32` to stdout and the
//! median wall-clock milliseconds of one run to stderr. Build it with
//! `cc -O2 -std=c99 -ffp-contract=off prog.c -lm`; the `omp` pragma on the
//! strip loop and `GCC ivdep` on the inner loops mark Fig. 7's parallel
//! and vector loops, and a build without `-fopenmp` ignores the former.

use polymage_ir::{BinOp, CmpOp, Reduction, UnOp};
use polymage_poly::Rect;
use polymage_vm::{
    BufId, BufKind, CaseExec, GroupKind, IdxPlan, Kernel, Op, Program, ReductionExec, SeqExec,
    TiledGroup,
};
use std::fmt::Write as _;

const PRELUDE: &str = r#"#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef long long I;
/* libm under private names: the C compiler can neither fold nor rewrite
   these calls, so every value comes from the library the VM calls. */
float pm_expf(float) __asm__("expf");
float pm_logf(float) __asm__("logf");
float pm_sinf(float) __asm__("sinf");
float pm_cosf(float) __asm__("cosf");
float pm_powf(float, float) __asm__("powf");
/* The op table of polymage-ir (ops.rs), spelled independently in C. */
static float F(unsigned u) { float f; memcpy(&f, &u, sizeof f); return f; }
static I imin(I a, I b) { return a < b ? a : b; }
static I imax(I a, I b) { return a > b ? a : b; }
static I fdiv(I a, I m) { I q = a / m; return q - (a % m < 0); } /* floor, m > 0 */
static float vmin(float a, float b) { return a != a ? b : b < a ? b : a; } /* f32::min */
static float vmax(float a, float b) { return a != a ? b : b > a ? b : a; } /* f32::max */
static float vmod(float a, float b) { return a - b * floorf(a / b); }
static float fclamp(float v, float lo, float hi) { v = v < lo ? lo : v; return v > hi ? hi : v; }
/* A data-dependent index: rounded half away from zero, saturated, clamped. */
static I ridx(float v, I lo, I hi) {
  float r = roundf(v);
  I i = r != r ? 0 : r >= 4e18f ? hi : r <= -4e18f ? lo : (I)r;
  return imin(imax(i, lo), hi);
}
static double now_ms(void) {
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return t.tv_sec * 1e3 + t.tv_nsec * 1e-6;
}
"#;

/// Renders a compiled program as a runnable C99 translation unit (see the
/// module docs for its interface).
pub fn emit_c(prog: &Program) -> String {
    let mut e = Emitter {
        prog,
        s: String::new(),
    };
    e.program();
    e.s
}

macro_rules! put {
    ($e:expr, $ind:expr, $($arg:tt)*) => {{
        let _ = writeln!($e.s, "{:w$}{}", "", format_args!($($arg)*), w = 2 * $ind);
    }};
}

/// How kernel code addresses one buffer: a C pointer, the coordinate
/// stored at its flat index 0 (a C expression per dimension), and its
/// row-major strides and sizes.
struct View {
    ptr: String,
    origin: Vec<String>,
    strides: Vec<i64>,
    sizes: Vec<i64>,
}

/// A full buffer's view: absolute coordinates against its declared origin.
fn full_view(prog: &Program, b: BufId) -> View {
    let d = &prog.buffers[b.0];
    View {
        ptr: format!("b{}", b.0),
        origin: d.origin.iter().map(i64::to_string).collect(),
        strides: d.strides(),
        sizes: d.sizes.clone(),
    }
}

/// A float constant by its bit pattern, with its value as a comment.
fn fbits(v: f32) -> String {
    format!("F(0x{:08x}u /* {v:?} */)", v.to_bits())
}

/// The offset one coordinate contributes: `(idx − org) · stride`.
fn term(idx: &str, org: &str, stride: i64) -> String {
    let rel = if org == "0" {
        idx.to_string()
    } else {
        format!("({idx} - {org})")
    };
    match stride {
        1 => rel,
        s if rel.contains(' ') && !rel.starts_with('(') => format!("({rel}) * {s}"),
        s => format!("{rel} * {s}"),
    }
}

/// `q·c + o` over loop variable `c`, tidily.
fn affine(q: i64, c: &str, o: i64) -> String {
    let lin = match q {
        0 => return o.to_string(),
        1 => c.to_string(),
        -1 => format!("-{c}"),
        q => format!("{q} * {c}"),
    };
    match o {
        0 => lin,
        o if o < 0 => format!("{lin} - {}", -o),
        o => format!("{lin} + {o}"),
    }
}

fn sum(terms: Vec<String>) -> String {
    if terms.is_empty() {
        "0".into()
    } else {
        terms.join(" + ")
    }
}

/// The flat element offset of a load.
fn load_offset(v: &View, plan: &[IdxPlan]) -> String {
    let terms = plan.iter().enumerate().map(|(d, p)| {
        let org = &v.origin[d];
        match *p {
            IdxPlan::Affine { dim, q, o, m } => {
                let idx = match dim {
                    None => o.div_euclid(m).to_string(),
                    Some(c) if m == 1 => affine(q, &format!("c{c}"), o),
                    Some(c) => format!("fdiv({}, {m})", affine(q, &format!("c{c}"), o)),
                };
                term(&idx, org, v.strides[d])
            }
            IdxPlan::Reg(r) => {
                let hi = match org.parse::<i64>() {
                    Ok(n) => (n + v.sizes[d] - 1).to_string(),
                    Err(_) => format!("{org} + {}", v.sizes[d] - 1),
                };
                term(&format!("ridx(r{}, {org}, {hi})", r.0), org, v.strides[d])
            }
        }
    });
    sum(terms.collect())
}

/// The C statement of one op.
fn op_stmt(op: &Op, view: &dyn Fn(BufId) -> View) -> String {
    let r = |x: &polymage_vm::RegId| format!("r{}", x.0);
    let rhs = match op {
        Op::ConstF { val, .. } => fbits(*val),
        Op::CoordF { dim, .. } => format!("(float)c{dim}"),
        Op::BinF { op, a, b, .. } => {
            let (a, b) = (r(a), r(b));
            match op {
                BinOp::Add => format!("{a} + {b}"),
                BinOp::Sub => format!("{a} - {b}"),
                BinOp::Mul => format!("{a} * {b}"),
                BinOp::Div => format!("{a} / {b}"),
                BinOp::Min => format!("vmin({a}, {b})"),
                BinOp::Max => format!("vmax({a}, {b})"),
                BinOp::Mod => format!("vmod({a}, {b})"),
                BinOp::Pow => format!("pm_powf({a}, {b})"),
            }
        }
        Op::UnF { op, a, .. } => {
            let f = match op {
                UnOp::Neg => "-",
                UnOp::Abs => "fabsf",
                UnOp::Sqrt => "sqrtf",
                UnOp::Exp => "pm_expf",
                UnOp::Log => "pm_logf",
                UnOp::Sin => "pm_sinf",
                UnOp::Cos => "pm_cosf",
                UnOp::Floor => "floorf",
                UnOp::Ceil => "ceilf",
            };
            format!("{f}({})", r(a))
        }
        Op::CmpMask { op, a, b, .. } => {
            let t = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("(float)({} {t} {})", r(a), r(b))
        }
        Op::MaskAnd { a, b, .. } => format!("{} * {}", r(a), r(b)),
        Op::MaskOr { a, b, .. } => format!("vmax({}, {})", r(a), r(b)),
        Op::MaskNot { a, .. } => format!("1.0f - {}", r(a)),
        Op::SelectF { mask, a, b, .. } => format!("{} != 0.0f ? {} : {}", r(mask), r(a), r(b)),
        Op::CastRound { a, .. } => format!("roundf({})", r(a)),
        Op::CastSat { a, lo, hi, .. } => {
            format!("roundf(fclamp({}, {}, {}))", r(a), fbits(*lo), fbits(*hi))
        }
        Op::Load { buf, plan, .. } => {
            let v = view(*buf);
            format!("{}[{}]", v.ptr, load_offset(&v, plan))
        }
    };
    format!("float r{} = {rhs};", op.dst().0)
}

/// A kernel's statements by loop level: `levels[0]` precedes the outermost
/// of `n` loops, `levels[n]` is the innermost body. With `hoist`, an op
/// goes to the level of the innermost coordinate its value depends on (the
/// kernel's dependence masks; bit 31, which coordinates 31 and beyond
/// share, means the innermost loop); otherwise every op runs per point.
fn kernel_levels(
    k: &Kernel,
    n: usize,
    hoist: bool,
    view: &dyn Fn(BufId) -> View,
) -> Vec<Vec<String>> {
    let mut levels = vec![Vec::new(); n + 1];
    for op in &k.ops {
        let dep = k.dep[op.dst().0 as usize];
        let level = if hoist && dep >> 31 == 0 {
            (32 - dep.leading_zeros()) as usize
        } else {
            n
        };
        levels[level.min(n)].push(op_stmt(op, view));
    }
    levels
}

/// A stored value under a stage's declared type: clamp (NaN passes), round.
fn store_value(v: String, sat: Option<(f32, f32)>, round: bool) -> String {
    let v = match sat {
        Some((lo, hi)) => format!("fclamp({v}, {}, {})", fbits(lo), fbits(hi)),
        None => v,
    };
    if round {
        format!("roundf({v})")
    } else {
        v
    }
}

fn ranges(r: &Rect) -> Vec<(String, String)> {
    r.ranges()
        .iter()
        .map(|(lo, hi)| (lo.to_string(), hi.to_string()))
        .collect()
}

/// `main`, given `NI`/`NO` (image and live-out counts) and their lengths
/// `ilen`/`olen` (each with a trailing 0, so no array is empty).
const MAIN: &str = r#"
int main(int argc, char **argv) {
  FILE *in = argc > 1 ? fopen(argv[1], "rb") : NULL;
  int reps = argc > 2 && atoi(argv[2]) > 1 ? atoi(argv[2]) : 1, r, i;
  float *img[NI + 1], *out[NO + 1];
  double *ms = malloc(sizeof(double) * reps), t;
  for (i = 0; i < NI; i++) {
    img[i] = malloc(sizeof(float) * ilen[i] + 1);
    if (!in || fread(img[i], sizeof(float), ilen[i], in) != (size_t)ilen[i]) {
      fprintf(stderr, "usage: %s IMAGES.f32 [RUNS]: image %d needs %lld floats\n", argv[0], i, ilen[i]);
      return 2;
    }
  }
  for (r = 0; r < reps; r++) {
    if (r)
      for (i = 0; i < NO; i++) free(out[i]);
    t = now_ms();
    run(img, out);
    ms[r] = now_ms() - t;
  }
  for (i = 0; i < NO; i++) fwrite(out[i], sizeof(float), olen[i], stdout);
  for (r = 1; r < reps; r++) /* insertion sort for the median */
    for (i = r; i > 0 && ms[i - 1] > ms[i]; i--) {
      t = ms[i]; ms[i] = ms[i - 1]; ms[i - 1] = t;
    }
  fprintf(stderr, "%.3f ms\n", ms[reps / 2]);
  return 0;
}
"#;

struct Emitter<'a> {
    prog: &'a Program,
    s: String,
}

impl Emitter<'_> {
    fn program(&mut self) {
        let prog = self.prog;
        put!(
            self,
            0,
            "/* pipeline `{}`: generated by polymage-rs */",
            prog.name
        );
        self.s.push_str(PRELUDE);
        put!(
            self,
            0,
            "\nstatic void run(float *const *img, float **out) {{"
        );
        let image = |i: usize| prog.image_bufs.iter().position(|b| b.0 == i);
        let output = |i: usize| prog.outputs.iter().any(|(_, b)| b.0 == i);
        let full: Vec<usize> = (0..prog.buffers.len())
            .filter(|&i| prog.buffers[i].kind == BufKind::Full)
            .collect();
        let (acquire, release) = (&prog.storage.acquire_group, &prog.storage.release_group);
        for &i in &full {
            let d = &prog.buffers[i];
            let init = match (image(i), acquire[i]) {
                (Some(k), _) => format!("img[{k}]"),
                (None, None) => format!("calloc({}, sizeof(float))", d.len()),
                (None, Some(_)) => "0".into(),
            };
            put!(
                self,
                1,
                "float *b{i} = {init}; /* {} {:?} */",
                d.name,
                d.sizes
            );
        }
        for (g, group) in prog.groups.iter().enumerate() {
            for &i in full.iter().filter(|&&i| image(i).is_none()) {
                if acquire[i] == Some(g) {
                    let len = prog.buffers[i].len();
                    put!(self, 1, "b{i} = calloc({len}, sizeof(float));");
                }
            }
            match &group.kind {
                GroupKind::Tiled(tg) => self.tiled(&group.name, tg),
                GroupKind::Reduction(red) => self.reduction(&group.name, red),
                GroupKind::Sequential(seq) => self.sequential(&group.name, seq),
            }
            // Freed after the last group that touches them; live-outs never.
            let last = g + 1 == prog.groups.len();
            for &i in full.iter().filter(|&&i| image(i).is_none() && !output(i)) {
                if release[i] == Some(g) || (last && release[i].is_none()) {
                    put!(self, 1, "free(b{i});");
                }
            }
        }
        for (k, (_, b)) in prog.outputs.iter().enumerate() {
            put!(self, 1, "out[{k}] = b{};", b.0);
        }
        put!(self, 0, "}}\n");
        let len = |b: &BufId| prog.buffers[b.0].len().to_string();
        let ilen: Vec<String> = prog
            .image_bufs
            .iter()
            .map(len)
            .chain(["0".into()])
            .collect();
        let olen: Vec<String> = prog
            .outputs
            .iter()
            .map(|(_, b)| len(b))
            .chain(["0".into()])
            .collect();
        put!(
            self,
            0,
            "enum {{ NI = {}, NO = {} }};",
            ilen.len() - 1,
            olen.len() - 1
        );
        put!(self, 0, "static const I ilen[] = {{{}}};", ilen.join(", "));
        put!(self, 0, "static const I olen[] = {{{}}};", olen.join(", "));
        self.s.push_str(MAIN);
    }

    /// A loop nest over `bounds` (inclusive C expressions) with the
    /// kernel's statements at their levels and `body` innermost.
    fn nest(
        &mut self,
        ind: usize,
        bounds: &[(String, String)],
        levels: &[Vec<String>],
        body: &[String],
        ivdep: bool,
    ) {
        let n = bounds.len();
        for (d, (lo, hi)) in bounds.iter().enumerate() {
            for st in &levels[d] {
                put!(self, ind + d, "{st}");
            }
            if ivdep && d + 1 == n {
                put!(self, ind + d, "#pragma GCC ivdep");
            }
            put!(
                self,
                ind + d,
                "for (I c{d} = {lo}; c{d} <= {hi}; c{d}++) {{"
            );
        }
        for st in levels[n].iter().chain(body) {
            put!(self, ind + n, "{st}");
        }
        for d in (0..n).rev() {
            put!(self, ind + d, "}}");
        }
    }

    /// One case's loops: `bounds` is the case's rectangle clipped to the
    /// region being computed (physical coordinates); the loops run in the
    /// case's virtual coordinates and store through `dest`. `hoist` places
    /// ops in outer loops and marks the inner loop `ivdep` — not for scans,
    /// whose kernels read what the loop writes.
    #[allow(clippy::too_many_arguments)]
    fn case(
        &mut self,
        ind: usize,
        c: &CaseExec,
        bounds: &[(String, String)],
        dest: &View,
        (sat, round): (Option<(f32, f32)>, bool),
        hoist: bool,
        view: &dyn Fn(BufId) -> View,
    ) {
        put!(self, ind, "{{");
        let n = bounds.len();
        let mut store = Vec::new();
        for (d, (lo, hi)) in bounds.iter().enumerate() {
            let (s, ph) = c.steps.get(d).copied().unwrap_or((1, 0));
            if s == 1 {
                put!(self, ind + 1, "I l{d} = {lo}, h{d} = {hi};");
            } else {
                put!(
                    self,
                    ind + 1,
                    "I l{d} = -fdiv({ph} - {lo}, {s}), h{d} = fdiv({hi} - {ph}, {s});"
                );
            }
            let phys = affine(s, &format!("c{d}"), if s == 1 { 0 } else { ph });
            store.push(term(&phys, &dest.origin[d], dest.strides[d]));
        }
        let nonempty: Vec<String> = (0..n).map(|d| format!("l{d} <= h{d}")).collect();
        put!(self, ind + 1, "if ({}) {{", nonempty.join(" && "));
        let levels = kernel_levels(&c.kernel, n, hoist, view);
        let value = store_value(format!("r{}", c.kernel.out().0), sat, round);
        let mut body = format!("{}[{}] = {value};", dest.ptr, sum(store));
        if let Some(m) = c.mask {
            body = format!("if (r{} != 0.0f) {body}", m.0);
        }
        let bounds: Vec<_> = (0..n).map(|d| (format!("l{d}"), format!("h{d}"))).collect();
        self.nest(ind + 2, &bounds, &levels, &[body], hoist);
        put!(self, ind + 1, "}}");
        put!(self, ind, "}}");
    }

    fn tiled(&mut self, name: &str, tg: &TiledGroup) {
        let prog = self.prog;
        // Table columns: per stage, its region's then its store's ranges.
        let mut col = Vec::with_capacity(tg.stages.len());
        let mut width = 0;
        for st in &tg.stages {
            col.push(width);
            width += 4 * st.dom.ndim();
        }
        let (ntiles, arena) = (tg.tiles.len(), tg.slots.arena_len);
        put!(
            self,
            1,
            "{{ /* ===== group {name}: {ntiles} overlapped tiles ===== */"
        );
        if ntiles == 0 {
            return put!(self, 1, "}}");
        }
        put!(
            self,
            2,
            "/* per tile and stage: region, then rows stored to the full array */"
        );
        put!(self, 2, "static const I tiles[{ntiles}][{width}] = {{");
        for t in &tg.tiles {
            let mut row = Vec::with_capacity(width);
            for (k, st) in tg.stages.iter().enumerate() {
                let region = &t.regions[k];
                let store = match (&t.stores[k], st.direct, st.full) {
                    (None, true, _) => Some(region),
                    (s, _, Some(_)) => s.as_ref(),
                    (_, _, None) => None,
                };
                let empty = Rect::new(vec![(0, -1); region.ndim()]);
                for r in [region, store.unwrap_or(&empty)] {
                    row.extend(r.ranges().iter().flat_map(|&(lo, hi)| [lo, hi]));
                }
            }
            let row: Vec<String> = row.iter().map(i64::to_string).collect();
            put!(self, 3, "{{{}}},", row.join(", "));
        }
        put!(self, 2, "}};");
        // Tiles come grouped by strip, in ascending strip order.
        let mut first = vec![0usize; tg.nstrips + 1];
        for t in &tg.tiles {
            first[t.strip + 1] += 1;
        }
        for s in 0..tg.nstrips {
            first[s + 1] += first[s];
        }
        let first: Vec<String> = first.iter().map(usize::to_string).collect();
        put!(
            self,
            2,
            "static const int strip[] = {{{}}};",
            first.join(", ")
        );
        put!(self, 2, "#pragma omp parallel for");
        put!(self, 2, "for (int s = 0; s < {}; s++) {{", tg.nstrips);
        put!(
            self,
            3,
            "float *A = malloc(sizeof(float) * {arena} + 1); /* packed arena */"
        );
        for (k, st) in tg.stages.iter().enumerate() {
            if let Some(sl) = tg.slots.stage[k] {
                let (off, slot) = (sl.offset, sl.slot);
                put!(
                    self,
                    3,
                    "float *s{k} = A + {off}; /* {} scratch, slot {slot} */",
                    st.name
                );
            }
        }
        put!(self, 3, "for (int t = strip[s]; t < strip[s + 1]; t++) {{");
        put!(self, 4, "const I *T = tiles[t];");
        // Coordinate bounds of a table rect (`T[base..]`) over `n` dims.
        let rect = |base: usize, n: usize| -> Vec<(String, String)> {
            let at = |i: usize| format!("T[{}]", base + i);
            (0..n).map(|d| (at(2 * d), at(2 * d + 1))).collect()
        };
        let nonempty = |r: &[(String, String)]| -> String {
            let c: Vec<String> = r.iter().map(|(lo, hi)| format!("{lo} <= {hi}")).collect();
            c.join(" && ")
        };
        // A scratchpad view: its producer's slot, relative to its region.
        let scratch = |k: usize| {
            let d = &prog.buffers[tg.stages[k].scratch.0];
            View {
                ptr: format!("s{k}"),
                origin: rect(col[k], d.sizes.len())
                    .into_iter()
                    .map(|(lo, _)| lo)
                    .collect(),
                strides: d.strides(),
                sizes: d.sizes.clone(),
            }
        };
        let view = |b: BufId| match prog.buffers[b.0].kind {
            BufKind::Full => full_view(prog, b),
            BufKind::Scratch => scratch(
                (tg.stages.iter().position(|s| !s.direct && s.scratch == b))
                    .expect("scratch owner in group"),
            ),
        };
        for (k, st) in tg.stages.iter().enumerate() {
            let n = st.dom.ndim();
            let (region, store) = (rect(col[k], n), rect(col[k] + 2 * n, n));
            let (domain, dest) = if st.direct {
                put!(self, 4, "/* stage {} (direct) */", st.name);
                put!(
                    self,
                    4,
                    "if ({} && {}) {{",
                    nonempty(&region),
                    nonempty(&store)
                );
                let b = st.full.expect("direct stage stores to a full buffer");
                (&store, full_view(prog, b))
            } else {
                put!(self, 4, "/* stage {} (scratch) */", st.name);
                put!(self, 4, "if ({}) {{", nonempty(&region));
                let len = prog.buffers[st.scratch.0].len();
                put!(self, 5, "memset(s{k}, 0, sizeof(float) * {len});");
                (&region, scratch(k))
            };
            for c in &st.cases {
                let bounds: Vec<_> = (ranges(&c.rect).into_iter().zip(domain))
                    .map(|((clo, chi), (lo, hi))| {
                        (format!("imax({clo}, {lo})"), format!("imin({chi}, {hi})"))
                    })
                    .collect();
                self.case(5, c, &bounds, &dest, (st.sat, st.round), true, &view);
            }
            if let (Some(b), false) = (st.full, st.direct) {
                // Copy the stored rows out of the scratchpad, one row each.
                let f = full_view(prog, b);
                put!(self, 5, "if ({}) {{", nonempty(&store));
                let at = |v: &View| {
                    let t = (0..n).map(|d| term(&format!("c{d}"), &v.origin[d], v.strides[d]));
                    format!("{} + {}", v.ptr, sum(t.collect()))
                };
                let (lo, hi) = &store[n - 1];
                let row = format!("sizeof(float) * ({hi} - {lo} + 1)");
                let body = format!("memcpy({}, {}, {row});", at(&f), at(&dest));
                let mut rows = store.clone();
                rows[n - 1].1 = lo.clone();
                self.nest(6, &rows, &vec![Vec::new(); n + 1], &[body], false);
                put!(self, 5, "}}");
            }
            put!(self, 4, "}}");
        }
        put!(self, 3, "}}");
        put!(self, 3, "free(A);");
        put!(self, 2, "}}");
        put!(self, 1, "}}");
    }

    fn reduction(&mut self, name: &str, red: &ReductionExec) {
        let prog = self.prog;
        let out = &prog.buffers[red.out.0];
        let (len, id, dom) = (out.len(), fbits(red.op.identity()), &red.red_dom);
        let what = format!("reduction `{}` over {dom}, one row-major sweep", red.name);
        put!(self, 1, "{{ /* ===== group {name}: {what} ===== */");
        put!(self, 2, "float *o = b{};", red.out.0);
        put!(self, 2, "for (I i = 0; i < {len}; i++) o[i] = {id};");
        if !dom.is_empty() && len > 0 {
            let view = |b: BufId| full_view(prog, b);
            let levels = kernel_levels(&red.kernel, dom.ndim(), true, &view);
            let strides = out.strides();
            let at: Vec<String> = (0..out.sizes.len())
                .map(|d| {
                    let (org, hi) = (out.origin[d], out.origin[d] + out.sizes[d] - 1);
                    let idx = format!("ridx(r{}, {org}, {hi})", red.kernel.outs[1 + d].0);
                    term(&idx, &org.to_string(), strides[d])
                })
                .collect();
            let v = format!("r{}", red.kernel.out().0);
            let combine = match red.op {
                Reduction::Sum => format!("o[at] += {v};"),
                Reduction::Min => format!("o[at] = vmin(o[at], {v});"),
                Reduction::Max => format!("o[at] = vmax(o[at], {v});"),
            };
            let body = [format!("I at = {};", sum(at)), combine];
            self.nest(2, &ranges(dom), &levels, &body, false);
        }
        if red.op != Reduction::Sum {
            put!(
                self,
                2,
                "for (I i = 0; i < {len}; i++) /* untouched cells read 0 */"
            );
            put!(self, 3, "if (o[i] == {id}) o[i] = 0.0f;");
        }
        put!(self, 1, "}}");
    }

    fn sequential(&mut self, name: &str, seq: &SeqExec) {
        let prog = self.prog;
        let what = format!(
            "sequential scan `{}` over {}, point by point",
            seq.name, seq.dom
        );
        put!(self, 1, "{{ /* ===== group {name}: {what} ===== */");
        let dest = full_view(prog, seq.out);
        let view = |b: BufId| full_view(prog, b);
        for c in &seq.cases {
            let rect = c.rect.intersect(&seq.dom);
            if !rect.is_empty() {
                let bounds = ranges(&rect);
                self.case(2, c, &bounds, &dest, (seq.sat, seq.round), false, &view);
            }
        }
        put!(self, 1, "}}");
    }
}
