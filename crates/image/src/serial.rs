//! A small serialized container format for laid-out images.
//!
//! Real Native Image emits ELF; our simulated binary serializes the layout
//! metadata (section table, CU placement, object placement) into a compact
//! tagged format so that images can be written to disk, inspected by tools
//! and read back structurally. Payload bytes are not materialized — the VM
//! executes from the in-memory [`crate::BinaryImage`]; the file format
//! exists for tooling and for exercising a realistic binary container.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::layout::BinaryImage;

const MAGIC: &[u8; 4] = b"NIMG";
const VERSION: u16 = 1;

/// Structural view of a serialized image file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageFile {
    /// Format version.
    pub version: u16,
    /// Page size used by the layout.
    pub page_size: u64,
    /// `.text` offset and size.
    pub text: (u64, u64),
    /// `.svm_heap` offset and size.
    pub svm_heap: (u64, u64),
    /// `(cu id, absolute offset)` in layout order.
    pub cus: Vec<(u32, u64)>,
    /// `(object id, absolute offset)` in layout order.
    pub objects: Vec<(u32, u64)>,
}

/// Errors decoding an image file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageFileError {
    /// The magic number did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The byte stream ended prematurely.
    Truncated,
}

impl fmt::Display for ImageFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageFileError::BadMagic => write!(f, "not a nimage file (bad magic)"),
            ImageFileError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageFileError::Truncated => write!(f, "truncated image file"),
        }
    }
}

impl Error for ImageFileError {}

/// Serializes the layout of `image` into the container format.
pub fn write_image_file(image: &BinaryImage) -> Bytes {
    let mut b = BytesMut::new();
    b.put_slice(MAGIC);
    b.put_u16(VERSION);
    b.put_u64(image.options.page_size);
    b.put_u64(image.text.offset);
    b.put_u64(image.text.size);
    b.put_u64(image.svm_heap.offset);
    b.put_u64(image.svm_heap.size);
    b.put_u32(image.cu_order.len() as u32);
    for &cu in &image.cu_order {
        b.put_u32(cu.0);
        b.put_u64(image.cu_offset(cu));
    }
    b.put_u32(image.object_order.len() as u32);
    for &obj in &image.object_order {
        b.put_u32(obj.0);
        b.put_u64(image.object_offset(obj).expect("ordered object has offset"));
    }
    b.freeze()
}

/// Decodes the container format.
///
/// # Errors
/// Returns [`ImageFileError`] on malformed input.
pub fn read_image_file(mut data: &[u8]) -> Result<ImageFile, ImageFileError> {
    fn need(data: &[u8], n: usize) -> Result<(), ImageFileError> {
        if data.len() < n {
            Err(ImageFileError::Truncated)
        } else {
            Ok(())
        }
    }
    need(data, 6)?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ImageFileError::BadMagic);
    }
    let version = data.get_u16();
    if version != VERSION {
        return Err(ImageFileError::BadVersion(version));
    }
    need(data, 8 * 5 + 4)?;
    let page_size = data.get_u64();
    let text = (data.get_u64(), data.get_u64());
    let svm_heap = (data.get_u64(), data.get_u64());
    let n_cus = data.get_u32() as usize;
    need(data, n_cus * 12 + 4)?;
    let mut cus = Vec::with_capacity(n_cus);
    for _ in 0..n_cus {
        cus.push((data.get_u32(), data.get_u64()));
    }
    let n_objs = data.get_u32() as usize;
    need(data, n_objs * 12)?;
    let mut objects = Vec::with_capacity(n_objs);
    for _ in 0..n_objs {
        objects.push((data.get_u32(), data.get_u64()));
    }
    Ok(ImageFile {
        version,
        page_size,
        text,
        svm_heap,
        cus,
        objects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ImageOptions;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{
        compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS,
    };
    use nimage_heap::{snapshot, HeapBuildConfig};
    use nimage_ir::{ProgramBuilder, TypeRef};

    fn tiny_image() -> BinaryImage {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let fld = pb.add_static_field(c, "S", TypeRef::Str);
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let s = f.sconst("x");
        f.put_static(fld, s);
        f.ret(None);
        pb.finish_body(cl, f);
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let s = f.get_static(fld);
        let v = f.str_len(s);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        BinaryImage::build(&cp, &snap, None, None, ImageOptions::default())
    }

    #[test]
    fn roundtrip_preserves_layout() {
        let img = tiny_image();
        let bytes = write_image_file(&img);
        let file = read_image_file(&bytes).unwrap();
        assert_eq!(file.version, VERSION);
        assert_eq!(file.page_size, img.options.page_size);
        assert_eq!(file.text, (img.text.offset, img.text.size));
        assert_eq!(file.svm_heap, (img.svm_heap.offset, img.svm_heap.size));
        assert_eq!(file.cus.len(), img.cu_order.len());
        assert_eq!(file.objects.len(), img.object_order.len());
        for (i, &(id, off)) in file.cus.iter().enumerate() {
            assert_eq!(id, img.cu_order[i].0);
            assert_eq!(off, img.cu_offset(img.cu_order[i]));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            read_image_file(b"ELF\x7f123456789"),
            Err(ImageFileError::BadMagic)
        );
    }

    #[test]
    fn truncated_input_is_rejected() {
        let img = tiny_image();
        let bytes = write_image_file(&img);
        for cut in [0, 3, 7, bytes.len() - 1] {
            assert_eq!(
                read_image_file(&bytes[..cut]),
                Err(ImageFileError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let img = tiny_image();
        let mut bytes = write_image_file(&img).to_vec();
        bytes[4] = 0xff;
        assert!(matches!(
            read_image_file(&bytes),
            Err(ImageFileError::BadVersion(_))
        ));
    }
}
