//! MPI datatypes and predefined reduction operators.

/// A scalar element type usable in minimpi messages and reductions —
/// the moral equivalent of the predefined MPI datatypes.
pub trait MpiScalar: Copy + Send + Sync + PartialOrd + std::fmt::Debug + 'static {
    /// Size of one element on the wire, in bytes.
    const BYTES: u64;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Addition.
    fn add(self, other: Self) -> Self;
    /// Multiplication.
    fn mul(self, other: Self) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty => $bytes:expr),* $(,)?) => {
        $(impl MpiScalar for $t {
            const BYTES: u64 = $bytes;
            #[inline] fn zero() -> Self { 0 as $t }
            #[inline] fn one() -> Self { 1 as $t }
            #[inline] fn add(self, other: Self) -> Self { self + other }
            #[inline] fn mul(self, other: Self) -> Self { self * other }
        })*
    };
}

impl_scalar! {
    f32 => 4, f64 => 8,
    i32 => 4, i64 => 8,
    u32 => 4, u64 => 8,
    u8 => 1,
}

/// Predefined reduction operators (MPI_SUM, MPI_PROD, MPI_MAX, MPI_MIN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Run `$body` with `$f` bound to `$op`'s [`ReduceOp::apply`] for a
/// variant known at compile time, so the `match` sits outside the element
/// loop and each operator gets its own straight loop.
macro_rules! per_op {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            ReduceOp::Sum => {
                let $f = |a, b| ReduceOp::Sum.apply(a, b);
                $body
            }
            ReduceOp::Prod => {
                let $f = |a, b| ReduceOp::Prod.apply(a, b);
                $body
            }
            ReduceOp::Max => {
                let $f = |a, b| ReduceOp::Max.apply(a, b);
                $body
            }
            ReduceOp::Min => {
                let $f = |a, b| ReduceOp::Min.apply(a, b);
                $body
            }
        }
    };
}

impl ReduceOp {
    /// Combine two elements.
    #[inline]
    pub fn apply<T: MpiScalar>(self, a: T, b: T) -> T {
        match self {
            ReduceOp::Sum => a.add(b),
            ReduceOp::Prod => a.mul(b),
            ReduceOp::Max => {
                if a >= b {
                    a
                } else {
                    b
                }
            }
            ReduceOp::Min => {
                if a <= b {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// Identity element for this operator.
    #[inline]
    pub fn identity<T: MpiScalar>(self) -> T {
        match self {
            ReduceOp::Sum => T::zero(),
            ReduceOp::Prod => T::one(),
            // Max/Min identities need bounds; fold from the first element
            // instead (see `combine_into`). Using zero here would be wrong,
            // so the collectives never call `identity` for Max/Min.
            ReduceOp::Max | ReduceOp::Min => {
                panic!("Max/Min reductions fold from the first operand")
            }
        }
    }

    /// Element-wise combine `src` into `acc` (equal lengths required):
    /// `acc[i] = apply(acc[i], src[i])`.
    pub fn combine_into<T: MpiScalar>(self, acc: &mut [T], src: &[T]) {
        assert_equal_lengths(acc, src);
        per_op!(self, |f| for (a, s) in acc.iter_mut().zip(src) {
            *a = f(*a, *s);
        })
    }

    /// Element-wise combine into a fresh vector (equal lengths required):
    /// `out[i] = apply(lhs[i], rhs[i])`, in one pass, the operand order of
    /// [`ReduceOp::combine_into`].
    pub fn combine_new<T: MpiScalar>(self, lhs: &[T], rhs: &[T]) -> Vec<T> {
        assert_equal_lengths(lhs, rhs);
        per_op!(self, |f| lhs
            .iter()
            .zip(rhs)
            .map(|(a, b)| f(*a, *b))
            .collect())
    }
}

fn assert_equal_lengths<T>(a: &[T], b: &[T]) {
    assert_eq!(
        a.len(),
        b.len(),
        "reduction buffers must have equal lengths"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_apply_elementwise() {
        let mut acc = vec![1.0f64, 5.0, -2.0];
        ReduceOp::Sum.combine_into(&mut acc, &[2.0, -1.0, 2.0]);
        assert_eq!(acc, vec![3.0, 4.0, 0.0]);
        ReduceOp::Max.combine_into(&mut acc, &[0.0, 10.0, -1.0]);
        assert_eq!(acc, vec![3.0, 10.0, 0.0]);
        ReduceOp::Min.combine_into(&mut acc, &[5.0, 0.0, -3.0]);
        assert_eq!(acc, vec![3.0, 0.0, -3.0]);
        ReduceOp::Prod.combine_into(&mut acc, &[2.0, 2.0, 2.0]);
        assert_eq!(acc, vec![6.0, 0.0, -6.0]);
    }

    #[test]
    fn integer_ops() {
        assert_eq!(ReduceOp::Sum.apply(3u64, 4), 7);
        assert_eq!(ReduceOp::Prod.apply(3i32, -4), -12);
        assert_eq!(ReduceOp::Max.apply(3u32, 4), 4);
        assert_eq!(ReduceOp::Min.apply(3i64, 4), 3);
    }

    /// Operand pairs where a "simpler" max/min would differ from `apply`:
    /// both orders of `(+0, -0)` and NaN on either side.
    fn edge_pairs<T: Copy>(zero: T, neg_zero: T, nan: T, one: T, big: T) -> (Vec<T>, Vec<T>) {
        let pairs = [
            (zero, neg_zero),
            (neg_zero, zero),
            (nan, one),
            (one, nan),
            (nan, nan),
            (neg_zero, neg_zero),
            (big, one),
            (one, big),
        ];
        pairs.iter().copied().unzip()
    }

    fn hoisted_matches_apply<T: MpiScalar>(lhs: &[T], rhs: &[T], bits: impl Fn(T) -> u64) {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
            let want: Vec<u64> = lhs
                .iter()
                .zip(rhs)
                .map(|(a, b)| bits(op.apply(*a, *b)))
                .collect();
            let mut acc = lhs.to_vec();
            op.combine_into(&mut acc, rhs);
            let into: Vec<u64> = acc.into_iter().map(&bits).collect();
            let new: Vec<u64> = op.combine_new(lhs, rhs).into_iter().map(&bits).collect();
            assert_eq!(into, want, "combine_into {op:?}");
            assert_eq!(new, want, "combine_new {op:?}");
        }
    }

    #[test]
    fn hoisted_combines_equal_apply_bit_for_bit() {
        let (l, r) = edge_pairs(0.0f32, -0.0, f32::NAN, 1.0, 3e7);
        hoisted_matches_apply(&l, &r, |x| x.to_bits() as u64);
        let (l, r) = edge_pairs(0.0f64, -0.0, f64::NAN, 1.0, 1e300);
        hoisted_matches_apply(&l, &r, f64::to_bits);
        // Long enough for the vectorised loop body and its tail.
        let l: Vec<f32> = (0..1027)
            .map(|i| [0.0, -0.0, f32::NAN, i as f32][i % 4])
            .collect();
        let r: Vec<f32> = (0..1027)
            .map(|i| [-0.0, 0.0, 2.0, f32::NAN, -(i as f32)][i % 5])
            .collect();
        hoisted_matches_apply(&l, &r, |x| x.to_bits() as u64);
        let l: Vec<i64> = (0..70).map(|i| i * 37 - 1000).collect();
        let r: Vec<i64> = (0..70).map(|i| 500 - i * 11).collect();
        hoisted_matches_apply(&l, &r, |x| x as u64);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn combine_new_mismatched_lengths_panic() {
        ReduceOp::Max.combine_new(&[1u8, 2], &[3]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        let mut acc = vec![0i32; 2];
        ReduceOp::Sum.combine_into(&mut acc, &[1, 2, 3]);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(<f32 as MpiScalar>::BYTES, 4);
        assert_eq!(<f64 as MpiScalar>::BYTES, 8);
        assert_eq!(<u8 as MpiScalar>::BYTES, 1);
    }
}
