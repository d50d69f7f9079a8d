//! The per-run options shared by both optimizers' entry points.

use cfaopc_litho::CancelToken;
use cfaopc_trace::TelemetrySink;

/// How [`run_pixel_ilt`](crate::run_pixel_ilt) and
/// `cfaopc_core::run_circleopt` start, report and stop.
/// `RunOptions::default()` is a cold run with no sink and no token.
///
/// Neither a sink nor a token that never fires changes the result: the
/// run is bit-identical to one without them.
pub struct RunOptions<'a, Init> {
    /// Warm start: a latent field (`&Grid2D<f64>`) for the pixel
    /// optimizer, circles (`SparseCircles`) for CircleOpt.
    pub init: Option<Init>,
    /// Receives one [`IterationRecord`](cfaopc_trace::IterationRecord)
    /// per optimizer step, in step order, including the step whose
    /// non-finite value trips the health guard.
    pub sink: Option<&'a mut dyn TelemetrySink>,
    /// Polled at the top of every iteration; once cancelled, the run
    /// returns [`LithoError::Cancelled`](cfaopc_litho::LithoError::Cancelled)
    /// before any further simulation work.
    pub cancel: Option<&'a CancelToken>,
}

impl<Init> Default for RunOptions<'_, Init> {
    fn default() -> Self {
        RunOptions {
            init: None,
            sink: None,
            cancel: None,
        }
    }
}
