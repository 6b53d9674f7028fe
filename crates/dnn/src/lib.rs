//! DNN workload models for the AIACC-Training reproduction.
//!
//! This crate supplies everything the communication layers need to know about
//! a deep-learning training job, plus a small *real* neural network for
//! end-to-end numerical tests:
//!
//! * [`DType`] — the element type of gradients on the wire, which sets their
//!   byte size. Real gradient values travel as flat `f32` slices.
//! * [`mod@f16`] — IEEE-754 half-precision conversion used by the gradient
//!   compression path (AIACC-Training uses half precision on the wire, §X).
//! * [`ModelProfile`] and the [`zoo`] — layer-accurate descriptions of the
//!   paper's evaluation models (Table I): VGG-16, ResNet-50/101, Transformer,
//!   BERT-Large, plus GPT-2 XL, the InsightFace face-recognition variant and a
//!   synthetic production CTR model.
//! * [`Mlp`] — a real multi-layer perceptron with manual backprop, so the
//!   distributed machinery can be validated against actual gradient math.
//! * [`data`] — seeded synthetic datasets.
//!
//! # Example
//!
//! ```
//! use aiacc_dnn::{zoo, DType};
//! let model = zoo::resnet50();
//! // Table I: ResNet-50 has ~25.6M parameters.
//! assert!((model.num_params() as f64 - 25.6e6).abs() / 25.6e6 < 0.03);
//! let grads = model.gradients(DType::F32);
//! assert_eq!(grads.len(), model.num_gradients());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
mod dtype;
pub mod f16;
mod layer;
mod mlp;
mod profile;
pub mod zoo;

pub use dtype::DType;
pub use layer::{LayerKind, LayerSpec, ParamSpec};
pub use mlp::{Mlp, MlpConfig};
pub use profile::{GradId, GradientSpec, ModelProfile, SampleUnit};
