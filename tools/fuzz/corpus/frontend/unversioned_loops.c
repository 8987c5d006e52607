/* Loops that must not be sign-versioned: the multiplier is written in
   the body or the for-init, has its address taken, has a sign a guard
   proves, sits in a reduce-pragma loop, in a loop with break/continue,
   or in an outer loop of a nest, or its product is hoisted. */

void written(double a, double *x, int n) {
  for (int i = 0; i < n; i++) {
    x[i] = a * x[i];
    a = x[i];
  }
}

void init_written(double a, double *x, int n) {
  for (a = x[0]; n > 0; n--)
    x[n] = a * x[n];
}

void addr_taken(double a, double *x, int n) {
  double *p = &a;
  for (int i = 0; i < n; i++) {
    x[i] = a * x[i];
    *p = x[i];
  }
}

void guard_proves(double a, double *x, int n) {
  if (a > 0.0)
    for (int i = 0; i < n; i++)
      x[i] = a * x[i];
}

double reduced(double a, const double *x, int n) {
  double s = 0.0;
  #pragma igen reduce s
  for (int i = 0; i < n; i++)
    s = s + a * x[i];
  return s;
}

void jumps(double a, double *x, int n) {
  for (int i = 0; i < n; i++) {
    if (i > 4)
      break;
    x[i] = a * x[i];
  }
  for (int i = 0; i < n; i++) {
    if (i < 2)
      continue;
    x[i] = a * x[i];
  }
}

void nest(double a, double *x, int n) {
  for (int i = 0; i < n; i++) {
    x[i] = a * x[i];
    for (int j = 0; j < n; j++)
      x[j] = x[j] + 1.0;
  }
}

void hoisted(double a, double b, double *x, int n) {
  for (int i = 0; i < n; i++)
    x[i] = a * b * x[i];
}

/* fuzz_frontend picks its options from a hash of these bytes; salt 10
   makes it compile this seed at -O with double precision. */
