//! Model adapters: anything the gateway can serve.

use adas_ml::Regressor;

/// A model the gateway can serve: a pure function from a feature vector to a
/// scalar prediction.
///
/// Implementations must be pure (no interior mutability observable through
/// `predict`), so that same-seed replays stay byte-identical.
pub trait ServableModel: Send + Sync {
    /// Predict a single feature row.
    fn predict(&self, features: &[f64]) -> f64;
}

/// Serve any [`Regressor`] from the `ml` crate.
#[derive(Debug, Clone)]
pub struct RegressorModel<R>(pub R);

impl<R: Regressor + Send + Sync> ServableModel for RegressorModel<R> {
    fn predict(&self, features: &[f64]) -> f64 {
        self.0.predict(features)
    }
}

/// Serve a closure — used for heuristics and for models whose inference is a
/// thin wrapper around existing crate logic (e.g. Seagull's window picker).
pub struct FnModel<F>(pub F);

impl<F: Fn(&[f64]) -> f64 + Send + Sync> ServableModel for FnModel<F> {
    fn predict(&self, features: &[f64]) -> f64 {
        (self.0)(features)
    }
}

/// Opaque identifier for a model registered with the gateway.
///
/// Handles are cheap to copy and remain valid for the lifetime of the
/// gateway; republishing a model version does not invalidate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelHandle(pub(crate) usize);

impl ModelHandle {
    /// Stable integer id of this model within its gateway.
    pub fn index(self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_ml::dataset::Dataset;
    use adas_ml::linear::LinearRegression;

    #[test]
    fn regressor_adapter_matches_direct_call() {
        let data = Dataset::from_xy(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]).unwrap();
        let lr = LinearRegression::fit(&data).unwrap();
        let direct = lr.predict(&[4.0]);
        let served = RegressorModel(lr).predict(&[4.0]);
        assert_eq!(direct.to_bits(), served.to_bits());
    }
}
