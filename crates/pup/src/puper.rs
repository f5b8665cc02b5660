//! The three-mode traversal driver.

use crate::error::PupError;

enum Mode<'a> {
    Size {
        bytes: usize,
    },
    Pack {
        out: &'a mut Vec<u8>,
    },
    Unpack {
        input: &'a [u8],
        pos: usize,
        error: Option<PupError>,
    },
}

/// A single sizing / packing / unpacking pass over an object graph.
///
/// User code rarely constructs these directly — use the crate-level
/// [`crate::to_bytes`] / [`crate::from_bytes`] helpers — but custom [`Pup`]
/// implementations interact with the methods here.
pub struct Puper<'a> {
    mode: Mode<'a>,
}

impl<'a> Puper<'a> {
    /// A sizing pass.
    #[inline]
    pub fn sizer() -> Puper<'static> {
        Puper {
            mode: Mode::Size { bytes: 0 },
        }
    }

    /// A packing pass appending to `out`.
    #[inline]
    pub fn packer(out: &'a mut Vec<u8>) -> Puper<'a> {
        Puper {
            mode: Mode::Pack { out },
        }
    }

    /// An unpacking pass reading from `input`.
    #[inline]
    pub fn unpacker(input: &'a [u8]) -> Puper<'a> {
        Puper {
            mode: Mode::Unpack {
                input,
                pos: 0,
                error: None,
            },
        }
    }

    /// True while unpacking — implementations use this to apply decoded
    /// bytes back to their fields.
    #[inline]
    pub fn is_unpacking(&self) -> bool {
        matches!(self.mode, Mode::Unpack { .. })
    }

    /// True while sizing.
    #[inline]
    pub fn is_sizing(&self) -> bool {
        matches!(self.mode, Mode::Size { .. })
    }

    /// True while packing.
    #[inline]
    pub fn is_packing(&self) -> bool {
        matches!(self.mode, Mode::Pack { .. })
    }

    /// The core operation: in sizing mode count `buf.len()`, in packing
    /// mode append `buf`, in unpacking mode overwrite `buf` with the next
    /// bytes from the input (zero-filling after a truncation error, so the
    /// traversal stays memory-safe and the error surfaces at the end).
    #[inline]
    pub fn raw(&mut self, buf: &mut [u8]) {
        if !self.is_unpacking() {
            return self.write(buf);
        }
        match self.take(buf.len()) {
            Some(src) => buf.copy_from_slice(src),
            None => buf.fill(0),
        }
    }

    /// [`Puper::raw`] for a run of bytes the caller only has by shared
    /// reference: counts `buf.len()` while sizing and appends `buf` while
    /// packing. An unpacking traversal reads with `raw` or `take`.
    #[inline]
    pub fn write(&mut self, buf: &[u8]) {
        match &mut self.mode {
            Mode::Size { bytes } => *bytes += buf.len(),
            Mode::Pack { out } => out.extend_from_slice(buf),
            Mode::Unpack { .. } => panic!("Puper::write called while unpacking"),
        }
    }

    /// The unpacking half of a byte run whose length is known only at run
    /// time (`String`, `Payload`, a thread image): the next `n` input
    /// bytes, borrowed from the input. The remaining input is checked
    /// once, before the caller allocates anything, so a hostile length
    /// prefix costs no memory: a short input records `Truncated { needed:
    /// n, at }` (the first error wins) and returns `None`, as does every
    /// call after an error.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        match &mut self.mode {
            Mode::Unpack { input, pos, error } => {
                if error.is_some() {
                    return None;
                }
                let input: &'a [u8] = input;
                let Some(run) = input[*pos..].get(..n) else {
                    *error = Some(PupError::Truncated {
                        needed: n,
                        at: *pos,
                    });
                    return None;
                };
                *pos += n;
                Some(run)
            }
            _ => panic!("Puper::take called while not unpacking"),
        }
    }

    /// [`Puper::raw`] for a field of a width known at compile time — every
    /// primitive's little-endian bytes — taken and returned by value:
    /// sizing and packing return `buf`, unpacking returns the next N input
    /// bytes. The length is a constant, so each mode is one add, one
    /// capacity check and store, or one bounds check and load, never a
    /// variable-length copy. Truncation behaves exactly as in `raw`:
    /// `Truncated { needed: N, at }`, first error wins, and the field
    /// reads as zeros.
    #[inline]
    pub(crate) fn fixed<const N: usize>(&mut self, buf: [u8; N]) -> [u8; N] {
        match &mut self.mode {
            Mode::Size { bytes } => *bytes += N,
            Mode::Pack { out } => out.extend_from_slice(&buf),
            Mode::Unpack { input, pos, error } => {
                if error.is_none() {
                    if let Some(src) = input[*pos..].first_chunk::<N>() {
                        *pos += N;
                        return *src;
                    }
                    *error = Some(PupError::Truncated {
                        needed: N,
                        at: *pos,
                    });
                }
                return [0; N];
            }
        }
        buf
    }

    /// Record a decoding error discovered by an implementation (e.g. a
    /// corrupt tag). Subsequent reads return zeros; the error is reported
    /// by [`Puper::finish`].
    #[inline]
    pub fn fail(&mut self, e: PupError) {
        if let Mode::Unpack { error, .. } = &mut self.mode {
            if error.is_none() {
                *error = Some(e);
            }
        } else {
            panic!("Puper::fail called while not unpacking: {e}");
        }
    }

    /// True when an unpacking error has already been recorded. Container
    /// implementations consult this to stop materializing elements once the
    /// input has failed (a hostile length prefix must not drive an
    /// unbounded loop of zero-filled elements).
    #[inline]
    pub fn has_error(&self) -> bool {
        matches!(
            self.mode,
            Mode::Unpack {
                error: Some(_),
                ..
            }
        )
    }

    /// Current unpack offset (0 outside unpack mode). Implementations use
    /// it to produce located errors.
    #[inline]
    pub fn offset(&self) -> usize {
        match &self.mode {
            Mode::Unpack { pos, .. } => *pos,
            _ => 0,
        }
    }

    /// Sizing result.
    pub(crate) fn size(&self) -> usize {
        match &self.mode {
            Mode::Size { bytes } => *bytes,
            _ => panic!("size() on a non-sizing Puper"),
        }
    }

    /// Finish an unpacking pass, returning the bytes consumed or the first
    /// error recorded.
    #[inline]
    pub fn finish(self) -> Result<usize, PupError> {
        match self.mode {
            Mode::Unpack { pos, error, .. } => match error {
                Some(e) => Err(e),
                None => Ok(pos),
            },
            _ => panic!("finish() on a non-unpacking Puper"),
        }
    }

    /// Finish an unpacking pass, requiring full consumption of the input.
    pub(crate) fn finish_exact(self) -> Result<(), PupError> {
        match self.mode {
            Mode::Unpack { input, pos, error } => match error {
                Some(e) => Err(e),
                None if pos == input.len() => Ok(()),
                None => Err(PupError::TrailingBytes(input.len() - pos)),
            },
            _ => panic!("finish_exact() on a non-unpacking Puper"),
        }
    }
}

/// A migratable piece of state: one traversal drives sizing, packing and
/// unpacking (see crate docs).
pub trait Pup {
    /// Visit every field, in a fixed order, with [`Puper::raw`]-derived
    /// operations.
    fn pup(&mut self, p: &mut Puper);
}
