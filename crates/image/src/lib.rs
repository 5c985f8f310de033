//! # nimage-image
//!
//! The simulated native-image binary: `.text` and `.svm_heap` section
//! layout, page geometry, a small serialized container format, and the
//! layout optimizer that chooses where startup's bytes go.
//!
//! A [`BinaryImage`] places
//!
//! * compilation units into `.text` (default: the compiler's alphabetical
//!   order, Sec. 2), followed by a *native tail* standing in for the
//!   statically linked native methods the paper's Fig. 6 shows at the end of
//!   `.text` (they are not compiled by Graal and not reordered);
//! * heap-snapshot objects into `.svm_heap` (default: CU order, Sec. 2),
//!   starting at the next page boundary.
//!
//! Ordering strategies simply pass permuted `cu_order` / `object_order`
//! slices to [`BinaryImage::build`]; everything else — offsets, page
//! boundaries, fault attribution in `nimage-vm` — follows from the layout.
//!
//! [`optimize`] goes beyond the paper: it splits the native tail into hot
//! and cold pages when the demand-paging cost model predicts strictly
//! fewer faults than the paper's first-touch placement, so it never
//! predicts worse than the paper's ordering. Its fault predictor places
//! both with the same cursor and section bases as [`BinaryImage::build`],
//! so this crate is the one place that knows where bytes go.

#![warn(missing_docs)]

mod layout;
pub mod optimize;
mod serial;

pub use layout::{BinaryImage, ImageOptions, SectionKind, SectionSpan};
pub use serial::{read_image_file, write_image_file, ImageFile, ImageFileError};
