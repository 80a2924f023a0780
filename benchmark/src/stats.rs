//! Order statistics and the class-weighted latency the workloads report.

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between the two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One op class: a named kind of input or request, its share of the
/// workload's mix, and the values measured for it.
#[derive(Clone, Debug)]
pub struct Class {
    pub name: String,
    pub weight: f64,
    pub samples: Vec<f64>,
}

impl Class {
    pub fn new(name: impl Into<String>, weight: f64) -> Class {
        Class { name: name.into(), weight, samples: Vec::new() }
    }
}

/// A workload's latency: the sum over classes of `weight × median`.
/// Weights are mix shares and sum to 1, so this is the expected cost of
/// one op drawn from the mix, with each class's median resisting the
/// outliers a shared machine injects. A class without samples counts as
/// `NaN`, which poisons the result instead of hiding the hole.
pub fn weighted_median(classes: &[Class]) -> f64 {
    classes.iter().map(|c| c.weight * median(&c.samples)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn weighted_median_is_the_mix_weighted_sum_of_class_medians() {
        let mut a = Class::new("a", 0.75);
        a.samples = vec![10.0, 10.0, 1000.0]; // outlier ignored by the median
        let mut b = Class::new("b", 0.25);
        b.samples = vec![2.0, 4.0];
        assert!((weighted_median(&[a.clone(), b]) - (7.5 + 0.75)).abs() < 1e-12);
        let empty = Class::new("c", 0.1);
        assert!(weighted_median(&[a, empty]).is_nan());
    }
}
