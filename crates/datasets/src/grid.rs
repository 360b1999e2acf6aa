//! Structured-grid generators (HotSpot temperature/power, SRAD speckle).

use rand::Rng;

use crate::rng_for;

/// HotSpot inputs: an initial temperature field around ambient (≈ 323 K)
/// and a power-density field with a few hot blocks, both `rows × cols`
/// row-major.
pub fn hotspot_fields(rows: usize, cols: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = rng_for("hotspot", seed);
    let temp: Vec<f32> = (0..rows * cols)
        .map(|_| 323.0 + rng.random::<f32>() * 4.0)
        .collect();
    let mut power = vec![0.0f32; rows * cols];
    // A handful of hot functional blocks, as in the HotSpot floorplans.
    let blocks = 8.max(rows / 64);
    for _ in 0..blocks {
        let r0 = rng.random_range(0..rows);
        let c0 = rng.random_range(0..cols);
        let h = (rows / 8).max(1);
        let w = (cols / 8).max(1);
        let p = 0.5 + rng.random::<f32>() * 3.0;
        for r in r0..(r0 + h).min(rows) {
            for c in c0..(c0 + w).min(cols) {
                power[r * cols + c] += p;
            }
        }
    }
    (temp, power)
}

/// A noisy ultrasound-style image for SRAD: a smooth object corrupted by
/// multiplicative speckle noise, values in `(0, 1]`, `rows × cols`
/// row-major.
pub fn speckle_image(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_for("speckle", seed);
    let (cr, cc) = (rows as f32 / 2.0, cols as f32 / 2.0);
    let radius = rows.min(cols) as f32 / 3.0;
    (0..rows * cols)
        .map(|i| {
            let r = (i / cols) as f32;
            let c = (i % cols) as f32;
            let d = ((r - cr).powi(2) + (c - cc).powi(2)).sqrt();
            let base = if d < radius { 0.8 } else { 0.3 };
            // Multiplicative speckle, clamped away from zero (SRAD takes
            // logarithms of the field).
            let noise = 1.0 + 0.3 * (rng.random::<f32>() - 0.5);
            (base * noise).clamp(0.05, 1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_shapes_and_ranges() {
        let (t, p) = hotspot_fields(64, 64, 1);
        assert_eq!(t.len(), 4096);
        assert_eq!(p.len(), 4096);
        assert!(t.iter().all(|&x| (323.0..328.0).contains(&x)));
        assert!(
            p.iter().any(|&x| x > 0.0),
            "some block must dissipate power"
        );
    }

    #[test]
    fn speckle_is_positive_and_structured() {
        let img = speckle_image(64, 64, 1);
        assert!(img.iter().all(|&x| x > 0.0 && x <= 1.0));
        // Object interior should be brighter than the background corner.
        let center = img[32 * 64 + 32];
        let corner = img[0];
        assert!(center > corner);
    }

    #[test]
    fn deterministic() {
        assert_eq!(speckle_image(16, 16, 7), speckle_image(16, 16, 7));
        let (t1, _) = hotspot_fields(16, 16, 7);
        let (t2, _) = hotspot_fields(16, 16, 7);
        assert_eq!(t1, t2);
    }
}
