//! Virtual-time sample series.

/// A series of `(virtual time in µs, value)` samples kept sorted by time.
///
/// Appends from a single deterministic clock are `O(1)`; an out-of-order
/// stamp (possible only when merging independently-clocked collectors,
/// e.g. a TCP node's connection-thread locals) is sorted in at its
/// timestamp — after any sample already carrying the same stamp, so the
/// result matches a stable sort of the arrival order — and counted in
/// [`TimeSeries::out_of_order`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(u64, f64)>,
    out_of_order: u64,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `(at_us, value)`, keeping the series sorted by time.
    pub fn push(&mut self, at_us: u64, value: f64) {
        match self.samples.last() {
            Some(&(last, _)) if last > at_us => {
                self.out_of_order += 1;
                let pos = self.samples.partition_point(|&(t, _)| t <= at_us);
                self.samples.insert(pos, (at_us, value));
            }
            _ => self.samples.push((at_us, value)),
        }
    }

    /// The samples, sorted by time.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` while no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Timestamp of the latest sample.
    pub fn last_stamp(&self) -> Option<u64> {
        self.samples.last().map(|&(t, _)| t)
    }

    /// How many pushes arrived with a timestamp below the then-latest
    /// sample (zero under a single monotone clock).
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Appends every sample of `other` at its timestamp.
    pub fn merge(&mut self, other: &TimeSeries) {
        for &(t, v) in &other.samples {
            self.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_pushes_are_appends() {
        let mut s = TimeSeries::new();
        s.push(1, 0.1);
        s.push(1, 0.2);
        s.push(5, 0.3);
        assert_eq!(s.samples(), &[(1, 0.1), (1, 0.2), (5, 0.3)]);
        assert_eq!(s.out_of_order(), 0);
        assert_eq!(s.last_stamp(), Some(5));
    }

    #[test]
    fn out_of_order_pushes_are_sorted_in_stably() {
        let mut s = TimeSeries::new();
        s.push(5, 0.5);
        s.push(1, 0.1);
        s.push(5, 0.6);
        s.push(3, 0.3);
        assert_eq!(s.samples(), &[(1, 0.1), (3, 0.3), (5, 0.5), (5, 0.6)]);
        assert_eq!(s.out_of_order(), 2);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let mut a = TimeSeries::new();
        a.push(1, 1.0);
        a.push(4, 4.0);
        let mut b = TimeSeries::new();
        b.push(2, 2.0);
        b.push(4, 40.0);
        a.merge(&b);
        assert_eq!(a.samples(), &[(1, 1.0), (2, 2.0), (4, 4.0), (4, 40.0)]);
    }
}
