//! Image generators for the medical-imaging workloads (Leukocyte,
//! Heartwall) and the media workloads (vips, x264, raytrace scenes).

use rand::Rng;

use crate::rng_for;

/// A grayscale image with `f32` pixels in `[0, 1]`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixel values.
    pub pixels: Vec<f32>,
}

impl Image {
    /// A black image.
    pub fn black(width: usize, height: usize) -> Image {
        Image {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Pixel accessor (row, col).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.pixels[r * self.width + c]
    }

    /// Mutable pixel accessor (row, col).
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.pixels[r * self.width + c]
    }

    fn draw_disk(&mut self, cr: f32, cc: f32, radius: f32, value: f32) {
        let r0 = (cr - radius).max(0.0) as usize;
        let r1 = ((cr + radius) as usize + 1).min(self.height);
        let c0 = (cc - radius).max(0.0) as usize;
        let c1 = ((cc + radius) as usize + 1).min(self.width);
        for r in r0..r1 {
            for c in c0..c1 {
                let d = ((r as f32 - cr).powi(2) + (c as f32 - cc).powi(2)).sqrt();
                if d <= radius {
                    *self.at_mut(r, c) = value;
                }
            }
        }
    }

    fn draw_ellipse_ring(&mut self, cr: f32, cc: f32, a: f32, b: f32, thick: f32, value: f32) {
        let r0 = (cr - b - thick).max(0.0) as usize;
        let r1 = ((cr + b + thick) as usize + 1).min(self.height);
        let c0 = (cc - a - thick).max(0.0) as usize;
        let c1 = ((cc + a + thick) as usize + 1).min(self.width);
        for r in r0..r1 {
            for c in c0..c1 {
                let y = (r as f32 - cr) / b;
                let x = (c as f32 - cc) / a;
                let d = (x * x + y * y).sqrt();
                if (d - 1.0).abs() * a.min(b) <= thick {
                    *self.at_mut(r, c) = value;
                }
            }
        }
    }
}

/// A synthetic in-vivo microscopy frame for Leukocyte: bright circular
/// cells on a noisy background. Returns the image and the true cell
/// centers (row, col).
pub fn cell_frame(
    width: usize,
    height: usize,
    cells: usize,
    seed: u64,
) -> (Image, Vec<(usize, usize)>) {
    let mut rng = rng_for("cells", seed);
    let mut img = Image::black(width, height);
    for p in &mut img.pixels {
        *p = 0.2 + 0.1 * rng.random::<f32>();
    }
    let radius = (height.min(width) as f32 / 20.0).max(3.0);
    let mut centers = Vec::with_capacity(cells);
    for _ in 0..cells {
        let cr = rng.random_range(radius as usize + 1..height - radius as usize - 1);
        let cc = rng.random_range(radius as usize + 1..width - radius as usize - 1);
        img.draw_disk(cr as f32, cc as f32, radius, 0.9);
        centers.push((cr, cc));
    }
    (img, centers)
}

/// A synthetic echocardiography sequence for Heartwall: each frame shows
/// two concentric elliptical walls (inner and outer) whose radii pulse
/// over time. Returns `frames` images.
pub fn heart_sequence(width: usize, height: usize, frames: usize, seed: u64) -> Vec<Image> {
    let mut rng = rng_for("heart", seed);
    let (cr, cc) = (height as f32 / 2.0, width as f32 / 2.0);
    (0..frames)
        .map(|f| {
            let mut img = Image::black(width, height);
            for p in &mut img.pixels {
                *p = 0.15 + 0.1 * rng.random::<f32>();
            }
            // Systole/diastole pulsation.
            let phase = (f as f32 / frames.max(1) as f32) * std::f32::consts::TAU;
            let pulse = 1.0 + 0.15 * phase.sin();
            let a_in = width as f32 / 6.0 * pulse;
            let b_in = height as f32 / 6.0 * pulse;
            img.draw_ellipse_ring(cr, cc, a_in, b_in, 2.0, 0.85);
            img.draw_ellipse_ring(cr, cc, a_in * 1.8, b_in * 1.8, 2.0, 0.7);
            img
        })
        .collect()
}

/// A synthetic natural-image stand-in for the media workloads: smooth
/// gradients plus texture and a few edges.
pub fn textured_image(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = rng_for("texture", seed);
    let mut img = Image::black(width, height);
    for r in 0..height {
        for c in 0..width {
            let g = 0.5 + 0.3 * ((r as f32 / 17.0).sin() * (c as f32 / 23.0).cos());
            *img.at_mut(r, c) = (g + 0.1 * rng.random::<f32>()).clamp(0.0, 1.0);
        }
    }
    // A few hard edges (objects) so motion estimation has features.
    for _ in 0..6 {
        let cr = rng.random_range(0..height) as f32;
        let cc = rng.random_range(0..width) as f32;
        img.draw_disk(cr, cc, width.min(height) as f32 / 12.0, rng.random::<f32>());
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_frame_has_bright_cells() {
        let (img, centers) = cell_frame(128, 96, 5, 1);
        assert_eq!(centers.len(), 5);
        for &(r, c) in &centers {
            assert!(img.at(r, c) > 0.8, "cell center must be bright");
        }
        // Background stays dim.
        assert!(img.pixels.iter().filter(|&&p| p < 0.35).count() > img.pixels.len() / 2);
    }

    #[test]
    fn heart_sequence_pulses() {
        let frames = heart_sequence(96, 96, 8, 1);
        assert_eq!(frames.len(), 8);
        // All frames share dimensions; wall pixels exist in each frame.
        for f in &frames {
            assert_eq!(f.width, 96);
            assert!(f.pixels.iter().any(|&p| p > 0.8));
        }
        // Pulsation: frames differ.
        assert_ne!(frames[0].pixels, frames[2].pixels);
    }

    #[test]
    fn textured_image_in_range() {
        let img = textured_image(64, 48, 2);
        assert!(img.pixels.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            textured_image(32, 32, 9).pixels,
            textured_image(32, 32, 9).pixels
        );
    }
}
