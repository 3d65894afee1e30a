//! Messages exchanged between simulated processes.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use crate::engine::Pid;
use crate::time::SimTime;

/// Message tag used for matching (an application-defined channel id).
pub type Tag = u64;

/// Payload carried by a message.
///
/// Simulated cost is always driven by [`Message::bytes`] — the *logical*
/// payload size on the modeled platform — so large transfers can be
/// simulated without materializing their content. When content matters
/// (reduction operands, shuffle blocks, task closures) it travels as real
/// Rust data in `Bytes` or `Value`.
pub enum Payload {
    /// No content beyond the logical size (pure timing).
    Empty,
    /// Raw bytes.
    Bytes(Bytes),
    /// An arbitrary Rust value, shared by `Arc` so broadcast-style fan-out
    /// does not copy.
    Value(Arc<dyn Any + Send + Sync>),
}

impl Payload {
    /// Wrap a value.
    pub fn value<T: Any + Send + Sync>(v: T) -> Payload {
        Payload::Value(Arc::new(v))
    }

    /// Downcast a `Value` payload; `None` for other variants or a type
    /// mismatch.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        match self {
            Payload::Value(v) => v.clone().downcast::<T>().ok(),
            _ => None,
        }
    }

    /// The raw bytes, if this is a `Bytes` payload.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Empty => write!(f, "Empty"),
            Payload::Bytes(b) => write!(f, "Bytes({} B)", b.len()),
            Payload::Value(_) => write!(f, "Value(..)"),
        }
    }
}

/// A delivered message.
#[derive(Debug)]
pub struct Message {
    /// Sending process.
    pub src: Pid,
    /// Destination process (carried for diagnostics: a mis-typed payload
    /// panic must identify the exact edge it traveled).
    pub dst: Pid,
    /// Matching tag.
    pub tag: Tag,
    /// Logical payload size in bytes (drives all costs).
    pub bytes: u64,
    /// Content.
    pub payload: Payload,
    /// Virtual time the message was handed to the transport.
    pub sent_at: SimTime,
    /// Virtual time the last byte reached the receiver's NIC.
    pub arrival: SimTime,
    /// Receiver-side CPU cost (transport overhead + per-byte), charged when
    /// the message is consumed.
    pub recv_cost: crate::time::SimDuration,
}

impl Message {
    /// Downcast the payload value. Panics with a descriptive message on
    /// mismatch — in the frameworks built on simnet a type mismatch is a
    /// protocol bug, never data-dependent.
    pub fn expect_value<T: Any + Send + Sync>(&self) -> Arc<T> {
        self.payload
            .downcast::<T>()
            .unwrap_or_else(|| self.wrong_payload::<T>())
    }

    /// [`Message::expect_value`] that consumes the message. The returned
    /// `Arc` is then the payload's only handle unless the sender kept one,
    /// so `Arc::unwrap_or_clone` on it moves the value instead of copying.
    pub fn into_value<T: Any + Send + Sync>(mut self) -> Arc<T> {
        match std::mem::replace(&mut self.payload, Payload::Empty) {
            Payload::Value(v) => match v.downcast::<T>() {
                Ok(v) => return v,
                Err(v) => self.payload = Payload::Value(v),
            },
            other => self.payload = other,
        }
        self.wrong_payload::<T>()
    }

    fn wrong_payload<T>(&self) -> ! {
        panic!(
            "message {} -> {} tag {} ({} B, payload {:?}) did not carry a {}",
            self.src,
            self.dst,
            self.tag,
            self.bytes,
            self.payload,
            std::any::type_name::<T>()
        )
    }
}

/// Receive-side matching filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSpec {
    /// Match only messages from this sender (`None` = any source).
    pub src: Option<Pid>,
    /// Match only this tag (`None` = any tag).
    pub tag: Option<Tag>,
}

impl MatchSpec {
    /// Match anything.
    pub const ANY: MatchSpec = MatchSpec {
        src: None,
        tag: None,
    };

    /// Match a specific tag from any source.
    pub fn tag(tag: Tag) -> MatchSpec {
        MatchSpec {
            src: None,
            tag: Some(tag),
        }
    }

    /// Match a specific source and tag.
    pub fn src_tag(src: Pid, tag: Tag) -> MatchSpec {
        MatchSpec {
            src: Some(src),
            tag: Some(tag),
        }
    }

    /// Does `msg` satisfy this filter?
    #[inline]
    pub fn matches(&self, msg: &Message) -> bool {
        self.src.is_none_or(|s| s == msg.src) && self.tag.is_none_or(|t| t == msg.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, tag: Tag) -> Message {
        Message {
            src: Pid(src),
            dst: Pid(0),
            tag,
            bytes: 0,
            payload: Payload::Empty,
            sent_at: SimTime::ZERO,
            arrival: SimTime::ZERO,
            recv_cost: crate::time::SimDuration::ZERO,
        }
    }

    #[test]
    fn match_spec_filters() {
        let m = msg(3, 7);
        assert!(MatchSpec::ANY.matches(&m));
        assert!(MatchSpec::tag(7).matches(&m));
        assert!(!MatchSpec::tag(8).matches(&m));
        assert!(MatchSpec::src_tag(Pid(3), 7).matches(&m));
        assert!(!MatchSpec::src_tag(Pid(4), 7).matches(&m));
    }

    #[test]
    fn payload_downcast() {
        let p = Payload::value(vec![1u64, 2, 3]);
        let v = p.downcast::<Vec<u64>>().unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
        assert!(p.downcast::<String>().is_none());
        assert!(Payload::Empty.downcast::<String>().is_none());
    }

    #[test]
    #[should_panic(expected = "did not carry")]
    fn expect_value_panics_on_mismatch() {
        let m = msg(0, 0);
        let _ = m.expect_value::<String>();
    }

    #[test]
    fn into_value_moves_an_unshared_payload() {
        let mut m = msg(1, 2);
        m.payload = Payload::value(vec![1u64, 2, 3]);
        let v = m.into_value::<Vec<u64>>();
        assert_eq!(Arc::strong_count(&v), 1);
        assert_eq!(*v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "payload Value(..)) did not carry a alloc::string::String")]
    fn into_value_panics_on_mismatch() {
        let mut m = msg(0, 0);
        m.payload = Payload::value(7u32);
        let _ = m.into_value::<String>();
    }
}
