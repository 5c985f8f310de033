//! Identifier newtypes and the reference-type lattice of the mini language.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the underlying index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(u32::try_from(v).expect("id overflow"))
            }
        }
    };
}

id_type!(
    /// Index of a class in a [`crate::Program`].
    ClassId,
    "c"
);
id_type!(
    /// Index of a method in a [`crate::Program`].
    MethodId,
    "m"
);
id_type!(
    /// Index of a field (static or instance) in a [`crate::Program`].
    FieldId,
    "f"
);
id_type!(
    /// Index of a basic block within one method body.
    BlockId,
    "b"
);

/// A virtual register within a method body.
///
/// The calling convention places `this` in local 0 for virtual methods, and
/// the declared parameters in the following locals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Local(pub u16);

impl Local {
    /// Returns the underlying register index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Local {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A (static) type in the mini language.
///
/// `Str` is a built-in immutable string type, mirroring the special treatment
/// `java.lang.String` receives in the paper's Algorithms 2 and 3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// Boolean primitive.
    Bool,
    /// 64-bit signed integer primitive.
    Int,
    /// 64-bit IEEE-754 floating point primitive.
    Double,
    /// Built-in immutable string.
    Str,
    /// Reference to an instance of the given class (or a subclass).
    Object(ClassId),
    /// Reference to an array with the given element type.
    Array(Box<TypeRef>),
}

impl TypeRef {
    /// Convenience constructor for an array of `elem`.
    pub fn array_of(elem: TypeRef) -> TypeRef {
        TypeRef::Array(Box::new(elem))
    }

    /// Whether this is one of the primitive (non-reference) types.
    pub fn is_primitive(&self) -> bool {
        matches!(self, TypeRef::Bool | TypeRef::Int | TypeRef::Double)
    }
}
