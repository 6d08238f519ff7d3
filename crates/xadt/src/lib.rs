//! # xadt — the XML Abstract Data Type
//!
//! The paper's central mechanism (§3.4): an ORDBMS column type that stores
//! an arbitrary XML *fragment* and evaluates path, keyword, and order
//! queries inside it without joins.
//!
//! * [`XadtValue`] — a fragment in one of two storage formats:
//!   [`StorageFormat::Plain`] tagged text, or [`StorageFormat::Compressed`]
//!   (XMill-inspired tag-dictionary coding, §3.4.1).
//! * [`get_elm`] / [`find_key_in_elm`] / [`get_elm_index`] — the three
//!   methods of §3.4.2, implemented as single-pass scans over either
//!   format that build no event stream and emit matches as byte ranges.
//! * [`unnest()`](crate::unnest::unnest) — the table UDF of §3.5 (Figure 9) that flattens a
//!   fragment into one row per element.
//! * [`choose_format`] — the sampling heuristic of §4.1 that decides, per
//!   mapped attribute, whether compression pays (≥ 20 % savings).

#![warn(missing_docs)]

pub mod choose;
pub mod compress;
pub mod fragment;
pub mod methods;
mod scan;
pub mod token;
pub mod unnest;

pub use choose::{choose_format, sample_fragments, SampleReport, DEFAULT_MIN_SAVINGS};
pub use compress::{compress, decompress, CompressedReader};
pub use fragment::{EventSource, StorageFormat, XadtValue};
pub use methods::{count_elm, find_key_in_elm, get_attr, get_elm, get_elm_index, text_content};
pub use token::{Event, FragmentError, PlainTokenizer};
pub use unnest::unnest;
