/* Optional compiled kernel core: the innermost integer loops.
 *
 * One function, exact and guarded by its python caller:
 *
 *   split_count_scaled(loads, num, den) -> int
 *       sum(ceil(P * den / num) for P in loads) on C int64. The caller
 *       (repro.approx.borders) admits a call only under the same
 *       magnitude guard the numpy fast path uses, so no intermediate
 *       product or the accumulated total can overflow; a defensive
 *       OverflowError is raised if that contract is ever violated.
 *
 * Build: python -m repro.core._native_build
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *
split_count_scaled(PyObject *self, PyObject *args)
{
    PyObject *loads;
    long long num, den;
    if (!PyArg_ParseTuple(args, "OLL", &loads, &num, &den))
        return NULL;
    if (num <= 0 || den <= 0) {
        PyErr_SetString(PyExc_ValueError, "num and den must be positive");
        return NULL;
    }
    PyObject *fast = PySequence_Fast(loads, "loads must be a sequence");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    long long total = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        long long p = PyLong_AsLongLong(items[i]);
        if (p == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return NULL;
        }
        long long prod, ceil_term;
        if (p > 0) {
            /* ceil(p*den/num) on positive operands */
            if (__builtin_mul_overflow(p, den, &prod) ||
                __builtin_add_overflow(prod, num - 1, &ceil_term)) {
                Py_DECREF(fast);
                PyErr_SetString(PyExc_OverflowError,
                                "split_count_scaled term overflows int64");
                return NULL;
            }
            ceil_term /= num;
        } else {
            /* -((-p*den) // num): non-negative numerator, so C
             * truncation equals python floor */
            if (__builtin_mul_overflow(-p, den, &prod)) {
                Py_DECREF(fast);
                PyErr_SetString(PyExc_OverflowError,
                                "split_count_scaled term overflows int64");
                return NULL;
            }
            ceil_term = -(prod / num);
        }
        if (__builtin_add_overflow(total, ceil_term, &total)) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_OverflowError,
                            "split_count_scaled total overflows int64");
            return NULL;
        }
    }
    Py_DECREF(fast);
    return PyLong_FromLongLong(total);
}

static PyMethodDef native_methods[] = {
    {"split_count_scaled", split_count_scaled, METH_VARARGS,
     "sum(ceil(P * den / num) for P in loads) on int64."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "_native",
    "Compiled inner loops of the CCS hot kernels (optional).",
    -1, native_methods
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
