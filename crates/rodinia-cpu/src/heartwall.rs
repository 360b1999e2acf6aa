//! Heart Wall Tracking (OpenMP): braided parallelism — tracking points
//! (tasks) distributed round-robin across threads, template matching
//! within each task.
//!
//! Adjacent tracking points' search windows overlap heavily and land on
//! different threads, so the frame's cache lines are read by many
//! threads — Heartwall is the *sharing outlier* of the paper's Figure 9.

use datasets::{image, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

const TPL: usize = 9;
const SEARCH_R: isize = 6;

/// The OpenMP Heart Wall instance.
#[derive(Debug, Clone)]
pub struct HeartwallOmp {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frames tracked.
    pub frames: usize,
    /// Inner-wall points.
    pub inner_points: usize,
    /// Outer-wall points.
    pub outer_points: usize,
    /// Input seed.
    pub seed: u64,
}

impl HeartwallOmp {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> HeartwallOmp {
        HeartwallOmp {
            width: scale.pick(64, 128, 609),
            height: scale.pick(64, 128, 590),
            frames: scale.pick(3, 6, 104),
            inner_points: scale.pick(6, 20, 20),
            outer_points: scale.pick(7, 31, 31),
            seed: 27,
        }
    }

    fn clamp_point(&self, r: isize, c: isize) -> (usize, usize) {
        let margin = TPL as isize / 2 + SEARCH_R;
        (
            r.clamp(margin, self.height as isize - 1 - margin) as usize,
            c.clamp(margin, self.width as isize - 1 - margin) as usize,
        )
    }

    /// Runs traced tracking, returning the final point positions.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<(usize, usize)> {
        let (w, h) = (self.width, self.height);
        let frames = image::heart_sequence(w, h, self.frames, self.seed);
        let n_points = self.inner_points + self.outer_points;
        let a_frame = prof.alloc("frame", (w * h * 4) as u64);
        let a_tpl = prof.alloc("templates", (n_points * TPL * TPL * 4) as u64);
        let a_pts = prof.alloc("points", (n_points * 8) as u64);
        let code_in = prof.code_region("hw_track_inner", 2400);
        let code_out = prof.code_region("hw_track_outer", 2800);
        let threads = prof.threads();

        // Initial points along the two wall ellipses.
        let (cr, cc) = (h as f32 / 2.0, w as f32 / 2.0);
        let (a_in, b_in) = (w as f32 / 6.0, h as f32 / 6.0);
        let mut points: Vec<(usize, usize)> = (0..self.inner_points)
            .map(|i| {
                let th = i as f32 / self.inner_points as f32 * std::f32::consts::TAU;
                self.clamp_point(
                    (cr + b_in * th.sin()) as isize,
                    (cc + a_in * th.cos()) as isize,
                )
            })
            .chain((0..self.outer_points).map(|i| {
                let th = i as f32 / self.outer_points as f32 * std::f32::consts::TAU;
                self.clamp_point(
                    (cr + 1.8 * b_in * th.sin()) as isize,
                    (cc + 1.8 * a_in * th.cos()) as isize,
                )
            }))
            .collect();
        let template = |frame: &image::Image, p: (usize, usize)| -> Vec<f32> {
            let half = TPL / 2;
            (0..TPL * TPL)
                .map(|k| frame.at(p.0 + k / TPL - half, p.1 + k % TPL - half))
                .collect()
        };
        let mut templates: Vec<Vec<f32>> =
            points.iter().map(|&p| template(&frames[0], p)).collect();
        let a_smooth = prof.alloc("smoothed", (w * h * 4) as u64);
        let code_pre = prof.code_region("hw_preprocess", 3200);

        for (fno, frame) in frames[1..].iter().enumerate() {
            // Whole-frame preprocessing (the despeckle/edge passes of the
            // original): row bands write the shared smoothed frame that
            // every tracking task then samples — the producer/consumer
            // sharing that makes Heartwall the paper's Figure 9 outlier.
            let smooth = RefCell::new(vec![0.0f32; w * h]);
            let fr0 = frame;
            let threads_n = prof.threads();
            prof.parallel(|t| {
                t.exec(code_pre);
                let mut s = smooth.borrow_mut();
                let per = h.div_ceil(threads_n);
                // Bands rotate across threads frame-to-frame (dynamic
                // scheduling), so frame lines migrate owners.
                let band = (t.tid() + fno) % threads_n;
                let lo = (band * per).min(h);
                let hi = ((band + 1) * per).min(h);
                for r in lo..hi {
                    for c in 0..w {
                        let mut acc = 0.0f32;
                        for dr in -1i64..=1 {
                            for dc in -1i64..=1 {
                                let rr = (r as i64 + dr).clamp(0, h as i64 - 1) as usize;
                                let cc = (c as i64 + dc).clamp(0, w as i64 - 1) as usize;
                                t.read(a_frame + (rr * w + cc) as u64 * 4, 4);
                                acc += fr0.pixels[rr * w + cc];
                            }
                        }
                        t.alu(10);
                        s[r * w + c] = acc / 9.0;
                        t.write(a_smooth + (r * w + c) as u64 * 4, 4);
                    }
                }
            });
            let smoothed = smooth.into_inner();

            let next = RefCell::new(points.clone());
            let (pts, tpls, sm) = (&points, &templates, &smoothed);
            let inner = self.inner_points;
            let frame_no = fno;
            prof.parallel(|t| {
                // Dynamic-schedule model: tasks rotate across threads
                // from frame to frame, as OpenMP's runtime migrates them.
                for p in ((t.tid() + frame_no) % threads..n_points).step_by(threads) {
                    t.exec(if p < inner { code_in } else { code_out });
                    t.read(a_pts + p as u64 * 8, 8);
                    // The template is loaded into registers once per
                    // task, then only the shared frame is streamed.
                    for k in 0..TPL * TPL {
                        t.read(a_tpl + (p * TPL * TPL + k) as u64 * 4, 4);
                    }
                    let (pr, pc) = pts[p];
                    let mut best = (0isize, 0isize);
                    let mut best_s = f32::INFINITY;
                    for or in -SEARCH_R..=SEARCH_R {
                        for oc in -SEARCH_R..=SEARCH_R {
                            let mut s = 0.0f32;
                            for dy in 0..TPL as isize {
                                for dx in 0..TPL as isize {
                                    let rr = (pr as isize + or + dy - TPL as isize / 2) as usize;
                                    let ccx = (pc as isize + oc + dx - TPL as isize / 2) as usize;
                                    // Matching runs against the shared
                                    // preprocessed frame.
                                    t.read(a_smooth + (rr * w + ccx) as u64 * 4, 4);
                                    t.alu(3);
                                    s += (sm[rr * w + ccx]
                                        - tpls[p][(dy * TPL as isize + dx) as usize])
                                        .abs();
                                }
                            }
                            t.branch(1);
                            if s < best_s {
                                best_s = s;
                                best = (or, oc);
                            }
                        }
                    }
                    // Task-specific post-processing (uniform per task).
                    t.alu(if p < inner { 8 } else { 14 });
                    let np = self.clamp_point(pr as isize + best.0, pc as isize + best.1);
                    next.borrow_mut()[p] = np;
                    t.write(a_pts + p as u64 * 8, 8);
                }
            });
            points = next.into_inner();
            // Refresh templates from the preprocessed frame so the next
            // frame matches against consistent data.
            let _ = frame;
            templates = points
                .iter()
                .map(|&p| {
                    let half = TPL / 2;
                    (0..TPL * TPL)
                        .map(|k| smoothed[(p.0 + k / TPL - half) * w + (p.1 + k % TPL - half)])
                        .collect()
                })
                .collect();
        }
        points
    }
}

impl CpuWorkload for HeartwallOmp {
    fn name(&self) -> &'static str {
        "heartwall"
    }
    fn run(&self, prof: &mut Profiler) {
        let _ = self.run_traced(prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{profile, ProfileConfig};

    #[test]
    fn points_stay_in_frame_and_spread() {
        let hw = HeartwallOmp::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let pts = hw.run_traced(&mut prof);
        assert!(pts.iter().all(|&(r, c)| r < hw.height && c < hw.width));
        let distinct: std::collections::HashSet<_> = pts.iter().collect();
        assert!(distinct.len() > pts.len() / 2);
    }

    #[test]
    fn heartwall_shares_the_frame_heavily() {
        // The sharing outlier: overlapping windows on different threads.
        let p =
            profile(&HeartwallOmp::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        let s = p.at_capacity(16 * 1024 * 1024);
        assert!(
            s.shared_access_rate() > 0.5,
            "shared access rate {:.3}",
            s.shared_access_rate()
        );
    }
}
