//! Correctness and closure checks. A failed check fails the run.

use widen_tensor::Tensor;

/// Largest share of epoch wall time the training phases may leave
/// unaccounted for (or over-count).
pub const TRAIN_CLOSURE_MAX: f64 = 0.05;

/// Largest share of mean client service time (send to reply) that the
/// server's own phase histograms may leave unaccounted for. The rest is
/// socket transfer, the reactor noticing a readable socket, and the
/// generator noticing the reply: 2–10 % on a shared two-core host, where
/// those threads wait for a core. Losing a phase as large as forward from
/// the server's histograms would leave far more.
pub const SERVE_CLOSURE_MAX: f64 = 0.3;

/// Largest share by which the server's phases may exceed what the client
/// waited: a little histogram-bucket interpolation, never more.
pub const SERVE_OVERCOUNT_MAX: f64 = 0.05;

/// Whether a served embedding block equals the oracle's rows bit for bit.
pub fn rows_match(served: &[f32], oracle: &Tensor) -> bool {
    let want = oracle.as_slice();
    served.len() == want.len()
        && served
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Relative gap between a measured whole and the sum of its parts.
pub fn closure_gap(whole: f64, parts: f64) -> f64 {
    if whole > 0.0 {
        (whole - parts) / whole
    } else {
        f64::INFINITY
    }
}

/// Training closure: the phase nanos of every epoch must sum to within
/// [`TRAIN_CLOSURE_MAX`] of the epochs' wall time.
pub fn check_train_closure(gap: f64) -> Result<(), String> {
    if gap.abs() <= TRAIN_CLOSURE_MAX {
        Ok(())
    } else {
        Err(format!(
            "training phases miss {:.1}% of epoch wall time (limit {:.0}%)",
            gap * 100.0,
            TRAIN_CLOSURE_MAX * 100.0
        ))
    }
}

/// Serving closure: mean server phase time may not exceed mean client
/// service time, nor fall short of it by more than [`SERVE_CLOSURE_MAX`].
pub fn check_serve_closure(gap: f64) -> Result<(), String> {
    if (-SERVE_OVERCOUNT_MAX..=SERVE_CLOSURE_MAX).contains(&gap) {
        Ok(())
    } else {
        Err(format!(
            "server phases account for {:.1}% of client latency (allowed {:.0}%..{:.0}%)",
            (1.0 - gap) * 100.0,
            (1.0 - SERVE_CLOSURE_MAX) * 100.0,
            (1.0 + SERVE_OVERCOUNT_MAX) * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_that_differs_in_one_bit_fails() {
        let oracle = Tensor::from_vec(2, 2, vec![1.0, -0.0, 3.5, f32::MIN_POSITIVE / 4.0]);
        let same = oracle.as_slice().to_vec();
        assert!(rows_match(&same, &oracle));

        let mut flipped = same.clone();
        flipped[3] = f32::from_bits(flipped[3].to_bits() ^ 1);
        assert!(!rows_match(&flipped, &oracle));

        // -0.0 == 0.0 numerically, but not bitwise.
        let mut signed = same.clone();
        signed[1] = 0.0;
        assert!(!rows_match(&signed, &oracle));

        assert!(!rows_match(&same[..3], &oracle));
    }

    #[test]
    fn a_phase_total_off_by_more_than_the_limit_fails() {
        assert!(check_train_closure(closure_gap(10.0, 9.7)).is_ok());
        assert!(check_train_closure(closure_gap(10.0, 10.3)).is_ok());
        assert!(check_train_closure(closure_gap(10.0, 9.0)).is_err());
        assert!(check_train_closure(closure_gap(10.0, 11.0)).is_err());
        assert!(check_train_closure(closure_gap(0.0, 1.0)).is_err());
    }

    #[test]
    fn server_phases_must_account_for_client_latency() {
        assert!(check_serve_closure(closure_gap(1000.0, 900.0)).is_ok());
        assert!(check_serve_closure(closure_gap(1000.0, 600.0)).is_err());
        // Server time beyond what the client waited is impossible.
        assert!(check_serve_closure(closure_gap(1000.0, 1200.0)).is_err());
    }
}
